//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing inside the crates under test is instrumented here: a span is
//! what the harness saw from outside — the call it made, or an interval
//! it derived from a public result (`CpiDone::latency`). Spans are kept
//! in memory and written once, at exit.

use stap_util::Json;
use std::collections::BTreeMap;

/// The `(stream, per-stream CPI index)` a span belongs to.
pub type CpiId = (u16, u32);

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The crate the time belongs to (`harness` for the benchmark's own).
    pub layer: &'static str,
    /// Seconds since the run's epoch.
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub cpi: Option<CpiId>,
}

#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        cpi: Option<CpiId>,
    ) -> usize {
        self.spans.push(Span {
            name,
            layer,
            start,
            end,
            parent,
            cpi,
        });
        self.spans.len() - 1
    }

    /// Appends another thread's log, keeping its parent links valid.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Gives every parentless span of one CPI a `cpi` root span covering
    /// them all, so one request's spans share a root and an identifier.
    pub fn link_cpi_roots(&mut self) {
        let mut extent: BTreeMap<CpiId, (f64, f64)> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent.is_none()) {
            if let Some(id) = s.cpi {
                let e = extent.entry(id).or_insert((s.start, s.end));
                e.0 = e.0.min(s.start);
                e.1 = e.1.max(s.end);
            }
        }
        let first_root = self.spans.len();
        let root_of: BTreeMap<CpiId, usize> = extent
            .keys()
            .enumerate()
            .map(|(i, id)| (*id, first_root + i))
            .collect();
        for s in self.spans.iter_mut().filter(|s| s.parent.is_none()) {
            if let Some(id) = s.cpi {
                s.parent = Some(root_of[&id]);
            }
        }
        for (id, (start, end)) in extent {
            self.record("cpi", "harness", start, end, None, Some(id));
        }
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its children cover (overlapping children count once).
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let (lo, hi) = (self.spans[p].start, self.spans[p].end);
                let (a, b) = (s.start.max(lo), s.end.min(hi));
                if b > a {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| (s.end - s.start) - covered(kids))
            .collect()
    }

    /// Per `(layer, name)`: span count, total seconds, self seconds.
    pub fn self_time_table(&self) -> Vec<SelfTimeRow> {
        let selfs = self.self_times();
        let mut rows: BTreeMap<(&str, &str), SelfTimeRow> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let row = rows.entry((s.layer, s.name)).or_insert(SelfTimeRow {
                layer: s.layer,
                name: s.name,
                count: 0,
                total_s: 0.0,
                self_s: 0.0,
            });
            row.count += 1;
            row.total_s += s.end - s.start;
            row.self_s += own;
        }
        rows.into_values().collect()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete event per span, one lane per layer.
    pub fn chrome_trace(&self) -> Json {
        let mut lanes: Vec<&str> = Vec::new();
        let events = self.spans.iter().enumerate().map(|(i, s)| {
            let lane = lanes.iter().position(|l| *l == s.layer).unwrap_or_else(|| {
                lanes.push(s.layer);
                lanes.len() - 1
            });
            let mut args = Json::obj([("id", Json::from(i))]);
            if let Some(p) = s.parent {
                args.push("parent", Json::from(p));
            }
            if let Some((stream, scpi)) = s.cpi {
                args.push("stream", Json::from(stream as usize));
                args.push("scpi", Json::from(scpi as usize));
            }
            Json::obj([
                ("name", Json::Str(s.name.to_string())),
                ("cat", Json::Str(s.layer.to_string())),
                ("ph", Json::Str("X".to_string())),
                ("ts", Json::Num(s.start * 1e6)),
                ("dur", Json::Num((s.end - s.start) * 1e6)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::from(lane)),
                ("args", args),
            ])
        });
        let events: Vec<Json> = events.collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct SelfTimeRow {
    pub layer: &'static str,
    pub name: &'static str,
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// Length of the union of intervals. Sorts in place.
fn covered(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for &(a, b) in intervals.iter() {
        if b > reach {
            total += b - a.max(reach);
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::default();
        let root = log.record("cpi", "harness", 0.0, 10.0, None, None);
        // Two overlapping children cover [1, 6]; a third sticks out past
        // the parent and is clipped to [9, 10].
        let a = log.record("a", "x", 1.0, 4.0, Some(root), None);
        log.record("b", "x", 3.0, 6.0, Some(root), None);
        log.record("c", "y", 9.0, 12.0, Some(root), None);
        log.record("a1", "x", 2.0, 3.0, Some(a), None);
        let own = log.self_times();
        assert_eq!(own, vec![4.0, 2.0, 3.0, 3.0, 1.0]);
        let table = log.self_time_table();
        let x_a = table.iter().find(|r| r.name == "a").unwrap();
        assert_eq!((x_a.count, x_a.total_s, x_a.self_s), (1, 3.0, 2.0));
    }

    #[test]
    fn roots_join_the_spans_of_one_cpi_across_threads() {
        let mut submitter = SpanLog::default();
        submitter.record("submit", "stap-serve", 1.0, 1.5, None, Some((0, 7)));
        submitter.record("submit", "stap-serve", 2.0, 2.5, None, Some((1, 7)));
        let mut collector = SpanLog::default();
        let outer = collector.record("in_server", "stap-serve", 1.2, 4.0, None, Some((0, 7)));
        collector.record("probe", "stap-mp", 0.0, 9.0, None, None);
        collector.record("inner", "stap-serve", 2.0, 3.0, Some(outer), Some((0, 7)));
        submitter.absorb(collector);
        submitter.link_cpi_roots();
        let s = &submitter.spans;
        assert_eq!(s.len(), 7);
        // (0, 7) sorts first, so its root is span 5 and covers [1, 4].
        assert_eq!((s[5].name, s[5].start, s[5].end), ("cpi", 1.0, 4.0));
        assert_eq!(s[0].parent, Some(5));
        assert_eq!(s[2].parent, Some(5));
        assert_eq!(s[1].parent, Some(6));
        assert_eq!(s[3].parent, None, "a span without a CPI stays a root");
        assert_eq!(s[4].parent, Some(2), "absorbed parent links are rebased");
    }
}
