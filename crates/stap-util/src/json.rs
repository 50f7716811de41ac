//! A minimal, insertion-ordered JSON value with a pretty-printer and a
//! recursive-descent parser.
//!
//! Only what report emission and the cluster launcher need: build a
//! tree, print it, read one back. No derive machinery — call sites
//! construct values explicitly, which keeps the output field order under
//! the author's control (handy for diffing reports across PRs).
//! [`Json::parse`] reads the documents this module itself emits (plus
//! ordinary standard JSON), so a parent process can read the result
//! lines its rank children print and `benchmark/` can read
//! `BENCHMARK.json`.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Appends a key to an object. Panics when `self` is not an object.
    pub fn push(&mut self, key: impl Into<String>, value: Json) -> &mut Json {
        match self {
            Json::Obj(pairs) => pairs.push((key.into(), value)),
            other => panic!("push on non-object {other:?}"),
        }
        self
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, when `self` is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Parses a JSON document. Returns the parsed value or a message
    /// with the byte offset of the first error. Numbers are `f64`;
    /// objects preserve key order; duplicate keys are kept as-is.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        s
    }

    /// Pretty rendering with two-space indentation and a trailing
    /// newline (the `serde_json::to_string_pretty` conventions).
    pub fn to_string_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(2), 0);
        s
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_number(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 near byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("dangling escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs don't appear in our own
                            // output; map lone surrogates to U+FFFD.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!(
                                "unknown escape '\\{}' at byte {}",
                                other as char, self.pos
                            ))
                        }
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, v: f64) {
    if !v.is_finite() {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let j = Json::obj([
            ("name", Json::from("fft")),
            ("n", Json::from(128usize)),
            ("ok", Json::from(true)),
            ("items", Json::arr([Json::from(1.5), Json::Null])),
        ]);
        assert_eq!(
            j.to_string_compact(),
            r#"{"name":"fft","n":128,"ok":true,"items":[1.5,null]}"#
        );
    }

    #[test]
    fn pretty_rendering_indents() {
        let j = Json::obj([("a", Json::arr([Json::from(1u64)]))]);
        assert_eq!(j.to_string_pretty(), "{\n  \"a\": [\n    1\n  ]\n}");
    }

    #[test]
    fn escapes_control_and_quote_characters() {
        let j = Json::Str("a\"b\\c\nd\u{1}".to_string());
        assert_eq!(j.to_string_compact(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(Json::Num(3.0).to_string_compact(), "3");
        assert_eq!(Json::Num(3.25).to_string_compact(), "3.25");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
    }

    #[test]
    fn get_and_push_work() {
        let mut j = Json::obj::<&str>([]);
        j.push("k", Json::from(2.0));
        assert_eq!(j.get("k").and_then(Json::as_f64), Some(2.0));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::arr([]).to_string_pretty(), "[]");
        assert_eq!(Json::obj::<&str>([]).to_string_pretty(), "{}");
    }

    #[test]
    fn parse_round_trips_own_output() {
        let j = Json::obj([
            ("bench", Json::from("kernels")),
            (
                "kernels",
                Json::arr([Json::obj([
                    ("name", Json::from("fft_forward_n128")),
                    ("before_ns", Json::Num(1234.5)),
                    ("after_ns", Json::Num(-617.25)),
                    ("note", Json::Str("a\"b\\c\nd".into())),
                    ("ok", Json::Bool(true)),
                    ("none", Json::Null),
                ])]),
            ),
        ]);
        for text in [j.to_string_pretty(), j.to_string_compact()] {
            assert_eq!(Json::parse(&text).unwrap(), j);
        }
    }

    #[test]
    fn parse_handles_standard_json_forms() {
        let j = Json::parse(" { \"a\" : [ 1e3 , -2.5E-1 , \"\\u0041\" ] , \"b\" : { } } ").unwrap();
        let arr = match j.get("a") {
            Some(Json::Arr(a)) => a,
            other => panic!("{other:?}"),
        };
        assert_eq!(arr[0], Json::Num(1000.0));
        assert_eq!(arr[1], Json::Num(-0.25));
        assert_eq!(arr[2], Json::Str("A".into()));
        assert_eq!(j.get("b"), Some(&Json::obj::<&str>([])));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"abc"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }
}
