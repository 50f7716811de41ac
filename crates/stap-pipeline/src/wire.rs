//! The pipeline's one process-boundary codec, dependency-free.
//!
//! Every byte that crosses between rank *processes* is encoded here, in
//! one binary format: little-endian integers, every `f64` as its bit
//! pattern, one version byte first. Decoding trusts no byte: every
//! length is bounded by the frame before anything is allocated for it,
//! version skew and trailing bytes are refused, and nothing panics.
//!
//! * **Messages** ([`encode_msg`] / [`decode_msg`] / [`msg_codec`]): the
//!   TCP transport moves pipeline messages with them, so a
//!   cross-process run produces detections bit-identical to the
//!   in-process channel fabric — the property the transport-parity gate
//!   asserts. Cube bodies cross in one bulk pass each way. A frame that
//!   does not parse decodes to [`Payload::Malformed`], which the
//!   receiving loop quarantines. [`PipelinePools`] is the codec's
//!   [`WirePool`]: on a wire endpoint cube payloads decode into the
//!   rank's pool and sent cubes return to it, so each frame is one pool
//!   get and one put on either side.
//! * **Reports** ([`encode_report`] / [`decode_report`]): a cluster
//!   child's task rank hands its timings, health counters, spans and
//!   comm events back to the parent over stdout. A report that does not
//!   parse is an `Err`. Detections never take this path: they flow to
//!   the driver rank, which runs in the parent, as messages.

use crate::metrics::{EdgeHealth, PipelineHealth, TaskTiming};
use crate::msg::{Msg, Payload, SubCpi};
use crate::runner::TaskReport;
use crate::tasks::PipelinePools;
use crate::trace::TaskSpan;
use stap_core::Detection;
use stap_cube::{CCube, RCube, SharedBufferPool};
use stap_math::{CMat, Cx};
use stap_mp::{CommEvent, TraceKind, WireCodec, WirePool};
use std::sync::Arc;

/// Bumped when the binary layout of a message or a report changes; a
/// frame of another version is refused instead of being misread.
const VERSION: u8 = 1;

const KIND_CUBE: u8 = 0;
const KIND_REAL: u8 = 1;
const KIND_WEIGHTS: u8 = 2;
// Kind 3 was the retired one-CPI `Detections` payload; kinds keep their numbers.
const KIND_DETECTIONS_GROUP: u8 = 4;
const KIND_DROPPED: u8 = 5;
const KIND_SHUTDOWN: u8 = 6;
/// No decodable kind: a `Malformed` message encodes to a malformed frame.
const KIND_MALFORMED: u8 = 0xff;

/// Serializes `msg` onto `out` (which the transport reuses across
/// sends; this function only appends).
pub fn encode_msg(msg: &Msg, out: &mut Vec<u8>) {
    out.push(VERSION);
    out.extend_from_slice(&msg.seq.to_le_bytes());
    out.push(msg.degraded as u8);
    match &msg.group {
        None => out.push(0),
        Some(g) => {
            out.push(1);
            put_u32(out, g.len());
            for s in g.iter() {
                out.extend_from_slice(&s.stream.to_le_bytes());
                out.extend_from_slice(&s.scpi.to_le_bytes());
            }
        }
    }
    match &msg.payload {
        Payload::Cube(c) => {
            out.push(KIND_CUBE);
            put_shape(out, c.shape());
            put_cx(out, c.as_slice());
        }
        Payload::Real(r) => {
            out.push(KIND_REAL);
            put_shape(out, r.shape());
            put_f64(out, r.as_slice());
        }
        Payload::Weights(ws) => {
            out.push(KIND_WEIGHTS);
            put_u32(out, ws.len());
            for w in ws {
                put_u32(out, w.rows());
                put_u32(out, w.cols());
                put_cx(out, w.as_slice());
            }
        }
        Payload::DetectionsGroup(gs, flags) => {
            out.push(KIND_DETECTIONS_GROUP);
            put_u32(out, gs.len());
            for ds in gs {
                put_detections(out, ds);
            }
            put_u32(out, flags.len());
            for &f in flags {
                out.push(f as u8);
            }
        }
        Payload::Dropped => out.push(KIND_DROPPED),
        Payload::Shutdown => out.push(KIND_SHUTDOWN),
        Payload::Malformed => out.push(KIND_MALFORMED),
    }
}

/// Inverse of [`encode_msg`]. Frames may come from a socket, so bytes
/// that do not parse as one frame of this codec version — truncated,
/// bit-flipped, with an inflated length, an unknown kind or trailing
/// bytes — decode to a [`Payload::Malformed`] message instead of
/// panicking.
pub fn decode_msg(bytes: &[u8]) -> Msg {
    decode_in(bytes, None)
}

/// The [`WireCodec`] the TCP transport installs for pipeline runs.
pub fn msg_codec() -> WireCodec<Msg> {
    WireCodec {
        encode: encode_msg,
        decode: decode_msg,
    }
}

/// [`decode_msg`] into the pools, and sent cube blocks back to them.
impl WirePool<Msg> for PipelinePools {
    fn decode(&self, bytes: &[u8]) -> Msg {
        decode_in(bytes, Some(self))
    }

    fn retire(&self, msg: Msg) {
        match msg.payload {
            Payload::Cube(c) => self.cx.recycle(c),
            Payload::Real(r) => self.real.recycle(r),
            _ => {}
        }
    }
}

type Decoded<T> = Result<T, &'static str>;

/// Decodes one frame, drawing cube buffers from `pools` when given; a
/// frame that does not parse is a `Malformed` message.
fn decode_in(bytes: &[u8], pools: Option<&PipelinePools>) -> Msg {
    parse(bytes, pools).unwrap_or_else(|_| Msg::new(0, Payload::Malformed))
}

fn parse(bytes: &[u8], pools: Option<&PipelinePools>) -> Decoded<Msg> {
    let mut c = Cursor { b: bytes, pos: 0 };
    if c.u8()? != VERSION {
        return Err("codec version skew");
    }
    let seq = c.u32()?;
    let degraded = c.u8()? != 0;
    let group: Option<Arc<[SubCpi]>> = match c.u8()? {
        0 => None,
        1 => {
            let n = c.count(6)?;
            let g = (0..n).map(|_| {
                Ok(SubCpi {
                    stream: c.u16()?,
                    scpi: c.u32()?,
                })
            });
            Some(g.collect::<Decoded<_>>()?)
        }
        _ => return Err("bad group flag"),
    };
    let payload = match c.u8()? {
        KIND_CUBE => {
            let shape = c.shape()?;
            let data = c.cx_vec(shape_len(shape)?, pools.map(|p| &p.cx))?;
            Payload::Cube(CCube::from_vec(shape, data))
        }
        KIND_REAL => {
            let shape = c.shape()?;
            let data = c.f64_vec(shape_len(shape)?, pools.map(|p| &p.real))?;
            Payload::Real(RCube::from_vec(shape, data))
        }
        KIND_WEIGHTS => {
            let n = c.count(8)?;
            let ws = (0..n).map(|_| {
                let (rows, cols) = (c.u32()? as usize, c.u32()? as usize);
                let len = rows.checked_mul(cols).ok_or("length overflow")?;
                Ok(CMat::from_vec(rows, cols, c.cx_vec(len, None)?))
            });
            Payload::Weights(ws.collect::<Decoded<_>>()?)
        }
        KIND_DETECTIONS_GROUP => {
            let n = c.count(4)?;
            let gs = (0..n)
                .map(|_| c.detections())
                .collect::<Decoded<Vec<_>>>()?;
            let nf = c.count(1)?;
            let flags: Vec<bool> = c.take(nf)?.iter().map(|&f| f != 0).collect();
            // Per member CPI of the slot, as the driver indexes them.
            let members = group.as_ref().map_or(gs.len(), |g| g.len());
            if gs.len() != members || !(flags.is_empty() || flags.len() == members) {
                return Err("detections not aligned with the group");
            }
            Payload::DetectionsGroup(gs, flags)
        }
        KIND_DROPPED => Payload::Dropped,
        KIND_SHUTDOWN => Payload::Shutdown,
        _ => return Err("unknown payload kind"),
    };
    if c.pos != bytes.len() {
        return Err("trailing bytes");
    }
    Ok(Msg {
        seq,
        degraded,
        group,
        payload,
    })
}

fn put_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&u32::try_from(v).expect("length fits u32").to_le_bytes());
}

fn put_shape(out: &mut Vec<u8>, shape: [usize; 3]) {
    for d in shape {
        put_u32(out, d);
    }
}

/// Appends `xs` as little-endian bit patterns, real part first: one
/// pass over the grown tail of `out`.
fn put_cx(out: &mut Vec<u8>, xs: &[Cx]) {
    let start = out.len();
    out.resize(start + 16 * xs.len(), 0);
    for (b, x) in out[start..].chunks_exact_mut(16).zip(xs) {
        b[..8].copy_from_slice(&x.re.to_le_bytes());
        b[8..].copy_from_slice(&x.im.to_le_bytes());
    }
}

/// [`put_cx`] for real samples.
fn put_f64(out: &mut Vec<u8>, xs: &[f64]) {
    let start = out.len();
    out.resize(start + 8 * xs.len(), 0);
    for (b, x) in out[start..].chunks_exact_mut(8).zip(xs) {
        b.copy_from_slice(&x.to_le_bytes());
    }
}

fn put_u64s(out: &mut Vec<u8>, xs: &[u64]) {
    for x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// The `f64` whose little-endian bit pattern starts `b`, a chunk of at
/// least eight bytes.
fn le_f64(b: &[u8]) -> f64 {
    f64::from_le_bytes(b[..8].try_into().expect("eight bytes"))
}

/// Element count of a cube shape, unless it overflows.
fn shape_len(shape: [usize; 3]) -> Decoded<usize> {
    (shape.iter())
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .ok_or("length overflow")
}

fn put_detections(out: &mut Vec<u8>, ds: &[Detection]) {
    put_u32(out, ds.len());
    for d in ds {
        out.extend_from_slice(&(d.bin as u64).to_le_bytes());
        out.extend_from_slice(&(d.beam as u64).to_le_bytes());
        out.extend_from_slice(&(d.range as u64).to_le_bytes());
        out.extend_from_slice(&d.power.to_le_bytes());
        out.extend_from_slice(&d.threshold.to_le_bytes());
    }
}

struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// The next `n` bytes, if the frame holds them.
    fn take(&mut self, n: usize) -> Decoded<&'a [u8]> {
        let rest = &self.b[self.pos..];
        if n > rest.len() {
            return Err("truncated frame");
        }
        self.pos += n;
        Ok(&rest[..n])
    }

    fn bytes<const N: usize>(&mut self) -> Decoded<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    fn u8(&mut self) -> Decoded<u8> {
        Ok(self.bytes::<1>()?[0])
    }

    fn u16(&mut self) -> Decoded<u16> {
        self.bytes().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Decoded<u32> {
        self.bytes().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Decoded<u64> {
        self.bytes().map(u64::from_le_bytes)
    }

    /// A `u64` index, refused when it does not fit a `usize`.
    fn index(&mut self) -> Decoded<usize> {
        usize::try_from(self.u64()?).map_err(|_| "index overflow")
    }

    fn f64(&mut self) -> Decoded<f64> {
        self.bytes().map(f64::from_le_bytes)
    }

    /// A `u32` count of items of at least `min_bytes` each, refused when
    /// the rest of the frame cannot hold that many, so no count sizes an
    /// allocation the bytes do not back.
    fn count(&mut self, min_bytes: usize) -> Decoded<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bytes) > self.b.len() - self.pos {
            return Err("count exceeds frame");
        }
        Ok(n)
    }

    fn shape(&mut self) -> Decoded<[usize; 3]> {
        Ok([
            self.u32()? as usize,
            self.u32()? as usize,
            self.u32()? as usize,
        ])
    }

    /// `n` complex samples in one pass, into a buffer from `pool` when
    /// given; taken only once the frame is known to hold them.
    fn cx_vec(&mut self, n: usize, pool: Option<&SharedBufferPool<Cx>>) -> Decoded<Vec<Cx>> {
        let raw = self.take(n.checked_mul(16).ok_or("length overflow")?)?;
        let mut v = pool.map_or_else(|| Vec::with_capacity(n), |p| p.get(n));
        v.extend(raw.chunks_exact(16).map(|b| Cx {
            re: le_f64(b),
            im: le_f64(&b[8..]),
        }));
        Ok(v)
    }

    /// [`Cursor::cx_vec`] for real samples.
    fn f64_vec(&mut self, n: usize, pool: Option<&SharedBufferPool<f64>>) -> Decoded<Vec<f64>> {
        let raw = self.take(n.checked_mul(8).ok_or("length overflow")?)?;
        let mut v = pool.map_or_else(|| Vec::with_capacity(n), |p| p.get(n));
        v.extend(raw.chunks_exact(8).map(le_f64));
        Ok(v)
    }

    fn detections(&mut self) -> Decoded<Vec<Detection>> {
        let n = self.count(40)?;
        (0..n)
            .map(|_| {
                Ok(Detection {
                    bin: self.u64()? as usize,
                    beam: self.u64()? as usize,
                    range: self.u64()? as usize,
                    power: self.f64()?,
                    threshold: self.f64()?,
                })
            })
            .collect()
    }
}

/// FNV-1a (64-bit) digest of a per-CPI detection structure, covering
/// every index and the *bit patterns* of every float. Two runs produce
/// the same digest iff their detections are bit-identical CPI by CPI —
/// the transport-parity gate compares this single value across
/// inproc and tcp instead of diffing full detection dumps.
pub fn detections_digest(dets: &[Vec<Detection>]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn eat(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(PRIME);
        }
    }
    let mut h = OFFSET;
    eat(&mut h, &(dets.len() as u64).to_le_bytes());
    for ds in dets {
        eat(&mut h, &(ds.len() as u64).to_le_bytes());
        for d in ds {
            eat(&mut h, &(d.bin as u64).to_le_bytes());
            eat(&mut h, &(d.beam as u64).to_le_bytes());
            eat(&mut h, &(d.range as u64).to_le_bytes());
            eat(&mut h, &d.power.to_bits().to_le_bytes());
            eat(&mut h, &d.threshold.to_bits().to_le_bytes());
        }
    }
    h
}

/// Serializes what a task rank hands the cluster parent: exactly what
/// [`crate::ParallelStap::assemble`] reads of its [`TaskReport`] (the
/// per-slot timings, the health counters and the spans) followed by the
/// rank's comm `events`. It names no task, node or rank: the parent
/// knows whose report it reads.
pub fn encode_report(report: &TaskReport, events: &[CommEvent], out: &mut Vec<u8>) {
    out.push(VERSION);
    put_u32(out, report.timings.len());
    for t in &report.timings {
        put_f64(out, &[t.recv, t.comp, t.send, t.recv_idle]);
    }
    let h = &report.health;
    for e in &h.edges {
        put_u64s(
            out,
            &[
                e.retries,
                e.dropped,
                e.stale_weights,
                e.quarantined,
                e.late_or_dup,
            ],
        );
    }
    put_u64s(out, &[h.dropped_cpis, h.degraded_cpis]);
    put_u64s(out, &h.max_mailbox_depth);
    put_u64s(out, &[h.mailbox_over_high_water]);
    put_u32(out, report.spans.len());
    for s in &report.spans {
        put_u64s(out, &[s.cpi as u64]);
        put_f64(out, &[s.start, s.recv_end, s.comp_end, s.send_end]);
    }
    put_u32(out, events.len());
    for e in events {
        // The declaration order of `TraceKind`, which `decode_report` matches.
        out.push(e.kind as u8);
        put_u64s(out, &[e.peer as u64, e.tag, e.bytes]);
        put_f64(out, &[e.start_s, e.end_s]);
    }
}

/// Inverse of [`encode_report`]. A report crosses a pipe from another
/// process, so bytes that do not parse as one report of this codec
/// version (truncated, with an inflated count, an unknown event kind or
/// trailing bytes) are an `Err`, never a panic.
pub fn decode_report(bytes: &[u8]) -> Result<(TaskReport, Vec<CommEvent>), &'static str> {
    let mut c = Cursor { b: bytes, pos: 0 };
    if c.u8()? != VERSION {
        return Err("codec version skew");
    }
    let n = c.count(32)?;
    let timings = (0..n)
        .map(|_| {
            Ok(TaskTiming {
                recv: c.f64()?,
                comp: c.f64()?,
                send: c.f64()?,
                recv_idle: c.f64()?,
            })
        })
        .collect::<Decoded<_>>()?;
    let mut health = PipelineHealth::default();
    for e in &mut health.edges {
        *e = EdgeHealth {
            retries: c.u64()?,
            dropped: c.u64()?,
            stale_weights: c.u64()?,
            quarantined: c.u64()?,
            late_or_dup: c.u64()?,
        };
    }
    health.dropped_cpis = c.u64()?;
    health.degraded_cpis = c.u64()?;
    for d in &mut health.max_mailbox_depth {
        *d = c.u64()?;
    }
    health.mailbox_over_high_water = c.u64()?;
    let n = c.count(40)?;
    let spans = (0..n)
        .map(|_| {
            Ok(TaskSpan {
                cpi: c.index()?,
                start: c.f64()?,
                recv_end: c.f64()?,
                comp_end: c.f64()?,
                send_end: c.f64()?,
            })
        })
        .collect::<Decoded<_>>()?;
    let n = c.count(41)?;
    let events = (0..n)
        .map(|_| {
            Ok(CommEvent {
                kind: match c.u8()? {
                    0 => TraceKind::Send,
                    1 => TraceKind::Recv,
                    2 => TraceKind::Wait,
                    3 => TraceKind::Redistribute,
                    _ => return Err("unknown trace kind"),
                },
                peer: c.index()?,
                tag: c.u64()?,
                bytes: c.u64()?,
                start_s: c.f64()?,
                end_s: c.f64()?,
            })
        })
        .collect::<Decoded<_>>()?;
    if c.pos != bytes.len() {
        return Err("trailing bytes");
    }
    let report = TaskReport {
        timings,
        health,
        spans,
        ..TaskReport::default()
    };
    Ok((report, events))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &Msg) -> Msg {
        let mut buf = Vec::new();
        encode_msg(msg, &mut buf);
        decode_msg(&buf)
    }

    fn det(bin: usize, beam: usize, range: usize, power: f64, threshold: f64) -> Detection {
        Detection {
            bin,
            beam,
            range,
            power,
            threshold,
        }
    }

    fn assert_detections_eq(a: &[Detection], b: &[Detection]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!((x.bin, x.beam, x.range), (y.bin, y.beam, y.range));
            assert_eq!(x.power.to_bits(), y.power.to_bits());
            assert_eq!(x.threshold.to_bits(), y.threshold.to_bits());
        }
    }

    #[test]
    fn cube_payload_round_trips_bitwise() {
        let data: Vec<Cx> = (0..24)
            .map(|i| Cx {
                re: (i as f64).sqrt() * 1.0e-3,
                im: -(i as f64) / 7.0,
            })
            .collect();
        let msg = Msg {
            degraded: true,
            ..Msg::new(9, Payload::Cube(CCube::from_vec([2, 3, 4], data)))
        };
        let got = roundtrip(&msg);
        assert_eq!(got.seq, 9);
        assert!(got.degraded);
        assert!(got.group.is_none());
        match (&msg.payload, &got.payload) {
            (Payload::Cube(a), Payload::Cube(b)) => {
                assert_eq!(a.shape(), b.shape());
                for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                    assert_eq!(x.re.to_bits(), y.re.to_bits());
                    assert_eq!(x.im.to_bits(), y.im.to_bits());
                }
            }
            _ => panic!("wrong payload kind"),
        }
    }

    #[test]
    fn real_and_weights_round_trip() {
        let r = RCube::from_vec(
            [1, 2, 3],
            vec![0.5, -1.5, f64::MIN_POSITIVE, 3.25, 0.0, 9.0],
        );
        let got = roundtrip(&Msg::new(3, Payload::Real(r.clone())));
        match got.payload {
            Payload::Real(b) => {
                assert_eq!(b.shape(), r.shape());
                assert_eq!(b.as_slice(), r.as_slice());
            }
            _ => panic!("wrong payload kind"),
        }

        let w0 = CMat::from_vec(2, 2, vec![Cx { re: 1.0, im: 2.0 }; 4]);
        let w1 = CMat::from_vec(1, 3, vec![Cx { re: -0.25, im: 0.0 }; 3]);
        let got = roundtrip(&Msg::new(4, Payload::Weights(vec![w0.clone(), w1.clone()])));
        match got.payload {
            Payload::Weights(ws) => {
                assert_eq!(ws.len(), 2);
                assert_eq!((ws[0].rows(), ws[0].cols()), (2, 2));
                assert_eq!((ws[1].rows(), ws[1].cols()), (1, 3));
                assert_eq!(ws[0].as_slice(), w0.as_slice());
                assert_eq!(ws[1].as_slice(), w1.as_slice());
            }
            _ => panic!("wrong payload kind"),
        }
    }

    #[test]
    fn detection_payloads_and_group_metadata_round_trip() {
        let ds = vec![det(1, 2, 3, 1.25e-8, 0.75), det(4, 0, 17, -0.0, f64::MAX)];
        let group: Arc<[SubCpi]> = Arc::from(
            vec![
                SubCpi {
                    stream: 7,
                    scpi: 40,
                },
                SubCpi {
                    stream: 65535,
                    scpi: u32::MAX,
                },
            ]
            .into_boxed_slice(),
        );
        let msg = Msg::grouped(
            11,
            group.clone(),
            Payload::DetectionsGroup(vec![ds.clone(), Vec::new()], vec![true, false]),
        );
        let got = roundtrip(&msg);
        assert_eq!(got.seq, 11);
        assert_eq!(got.group.as_deref(), Some(&group[..]));
        match got.payload {
            Payload::DetectionsGroup(gs, flags) => {
                assert_eq!(gs.len(), 2);
                assert_detections_eq(&gs[0], &ds);
                assert!(gs[1].is_empty());
                assert_eq!(flags, vec![true, false]);
            }
            _ => panic!("wrong payload kind"),
        }
    }

    #[test]
    fn digest_separates_any_field_flip() {
        let base = vec![vec![det(1, 2, 3, 0.5, 0.25)], Vec::new()];
        let d0 = detections_digest(&base);
        assert_eq!(d0, detections_digest(&base.clone()), "deterministic");
        let variants = [
            vec![vec![det(0, 2, 3, 0.5, 0.25)], Vec::new()],
            vec![vec![det(1, 2, 3, 0.5000001, 0.25)], Vec::new()],
            vec![vec![det(1, 2, 3, -0.5, 0.25)], Vec::new()],
            vec![vec![det(1, 2, 3, 0.5, 0.25)]],
            vec![Vec::new(), vec![det(1, 2, 3, 0.5, 0.25)]],
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(d0, detections_digest(v), "variant {i} must differ");
        }
    }

    #[test]
    fn sentinels_round_trip() {
        assert!(matches!(
            roundtrip(&Msg::new(2, Payload::Dropped)).payload,
            Payload::Dropped
        ));
        assert!(matches!(
            roundtrip(&Msg::new(6, Payload::Shutdown)).payload,
            Payload::Shutdown
        ));
    }

    #[test]
    fn version_skew_is_loud() {
        let mut buf = Vec::new();
        encode_msg(&Msg::new(0, Payload::Dropped), &mut buf);
        buf[0] = 99;
        assert_eq!(parse(&buf, None).unwrap_err(), "codec version skew");
        assert!(matches!(decode_msg(&buf).payload, Payload::Malformed));
    }

    /// One message of every kind, with awkward values: NaN payloads,
    /// negative zero, an empty cube, flags and an empty detection list.
    fn every_kind() -> Vec<Msg> {
        let group: Arc<[SubCpi]> = Arc::from(vec![
            SubCpi { stream: 3, scpi: 9 },
            SubCpi {
                stream: 0,
                scpi: u32::MAX,
            },
        ]);
        let cx = |i: usize| Cx {
            re: (i as f64).sin(),
            im: if i == 5 { f64::NAN } else { -(i as f64) },
        };
        vec![
            Msg {
                degraded: true,
                ..Msg::grouped(
                    4,
                    group.clone(),
                    Payload::Cube(CCube::from_fn([2, 3, 2], |i, j, k| cx(i * 6 + j * 2 + k))),
                )
            },
            Msg::new(1, Payload::Cube(CCube::from_vec([0, 4, 2], Vec::new()))),
            Msg::new(
                2,
                Payload::Real(RCube::from_vec(
                    [1, 2, 2],
                    vec![-0.0, 1.5, f64::INFINITY, 1e-310],
                )),
            ),
            Msg::grouped(
                5,
                group.clone(),
                Payload::Weights(vec![
                    CMat::from_vec(2, 1, vec![cx(1), cx(2)]),
                    CMat::from_vec(1, 1, vec![cx(5)]),
                ]),
            ),
            Msg::grouped(
                6,
                group,
                Payload::DetectionsGroup(
                    vec![
                        vec![det(1, 0, 7, 2.5, 0.5), det(3, 1, 2, -0.0, 1.0)],
                        Vec::new(),
                    ],
                    vec![false, true],
                ),
            ),
            Msg::new(7, Payload::Dropped),
            Msg::new(8, Payload::Shutdown),
        ]
    }

    fn frame(msg: &Msg) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_msg(msg, &mut buf);
        buf
    }

    /// A report with awkward values: NaN, negative-zero and subnormal
    /// timings, a `u64::MAX` tag, counters in every edge, every event kind.
    fn report_frames() -> Vec<Vec<u8>> {
        let mut health = PipelineHealth::default();
        health.edges[3].retries = 2;
        health.edges[9].dropped = u64::MAX;
        health.edges[10].late_or_dup = 5;
        health.degraded_cpis = 3;
        health.max_mailbox_depth[1] = 12;
        health.mailbox_over_high_water = 4;
        let report = TaskReport {
            timings: vec![
                TaskTiming {
                    recv: f64::NAN,
                    comp: -0.0,
                    send: 1e-310,
                    recv_idle: 1.0 / 3.0,
                },
                TaskTiming::default(),
            ],
            health,
            spans: vec![TaskSpan {
                cpi: 5,
                start: 0.001,
                recv_end: 0.002,
                comp_end: f64::INFINITY,
                send_end: 0.004,
            }],
            ..TaskReport::default()
        };
        let kinds = [
            TraceKind::Send,
            TraceKind::Recv,
            TraceKind::Wait,
            TraceKind::Redistribute,
        ];
        let events: Vec<CommEvent> = (kinds.iter().enumerate())
            .map(|(i, &kind)| CommEvent {
                kind,
                peer: i,
                tag: u64::MAX - i as u64,
                bytes: 1 << (10 * i),
                start_s: 0.25 * i as f64,
                end_s: if i == 2 { f64::NAN } else { 0.375 },
            })
            .collect();
        let bare = TaskReport {
            timings: vec![TaskTiming::default()],
            ..TaskReport::default()
        };
        [
            (&report, &events[..]),
            (&report, &events[..0]),
            (&bare, &events[..1]),
        ]
        .map(|(r, e)| {
            let mut buf = Vec::new();
            encode_report(r, e, &mut buf);
            buf
        })
        .into()
    }

    /// What a socket or a pipe may hand a decoder: every truncation,
    /// single bit flips, length fields inflated at every offset and one
    /// trailing byte. `decode` re-encodes what it parsed, `None` for bytes
    /// it refused. Nothing may panic, every cut or lengthened frame is
    /// refused, and every unmodified frame comes back bit for bit.
    fn hostile_bytes(what: &str, frames: &[Vec<u8>], decode: impl Fn(&[u8]) -> Option<Vec<u8>>) {
        for f in frames {
            assert_eq!(decode(f).as_ref(), Some(f), "{what}: round trip");
            for cut in 0..f.len() {
                assert!(
                    decode(&f[..cut]).is_none(),
                    "{what}: a frame cut at {cut} of {} decoded",
                    f.len()
                );
            }
            for at in 0..f.len().saturating_sub(3) {
                for big in [u32::MAX, 1 << 31, 1 << 28, 0x0001_0001] {
                    let mut g = f.clone();
                    g[at..at + 4].copy_from_slice(&big.to_le_bytes());
                    let _ = decode(&g);
                }
            }
            let mut g = f.clone();
            g.push(0);
            assert!(decode(&g).is_none(), "{what}: a trailing byte decoded");
        }
        stap_util::check::check(&format!("{what} under bit flips"), 400, |g| {
            let mut f = g.choose(&frames.iter().collect::<Vec<_>>()).clone();
            for _ in 0..g.int(1, 4) {
                let bit = g.int(0, 8 * f.len());
                f[bit / 8] ^= 1 << (bit % 8);
            }
            let _ = decode(&f);
        });
    }

    /// Message frames through the plain codec and through the pools, which
    /// must agree, and task reports.
    #[test]
    fn no_frame_bytes_panic_the_decoder_and_clean_frames_round_trip() {
        let pools = PipelinePools::default();
        let frames: Vec<Vec<u8>> = every_kind().iter().map(frame).collect();
        hostile_bytes("wire frames", &frames, |b| {
            let msg = decode_msg(b);
            let pooled = WirePool::decode(&pools, b);
            let again = frame(&msg);
            assert_eq!(frame(&pooled), again, "pooled and plain decodes differ");
            pools.retire(pooled);
            (!matches!(msg.payload, Payload::Malformed)).then_some(again)
        });
        hostile_bytes("task reports", &report_frames(), |b| {
            let (report, events) = decode_report(b).ok()?;
            let mut again = Vec::new();
            encode_report(&report, &events, &mut again);
            Some(again)
        });
    }

    /// A worker rank's task report (timings, health counters, spans)
    /// survives the report frame field for field. The name predates the
    /// binary frame, which replaced a JSON codec for the same report.
    #[test]
    fn rank_result_json_round_trips() {
        let report = TaskReport {
            timings: vec![
                TaskTiming {
                    recv: 0.125,
                    comp: 1.0 / 3.0,
                    send: 2.5e-4,
                    recv_idle: 0.0625,
                },
                TaskTiming::default(),
            ],
            health: {
                let mut h = PipelineHealth::default();
                h.edges[3].retries = 2;
                h.edges[9].dropped = 1;
                h.max_mailbox_depth[1] = 12;
                h.mailbox_over_high_water = 4;
                h
            },
            spans: vec![TaskSpan {
                cpi: 5,
                start: 0.001,
                recv_end: 0.002,
                comp_end: 0.0035,
                send_end: 0.004,
            }],
            ..TaskReport::default()
        };
        let mut buf = Vec::new();
        encode_report(&report, &[], &mut buf);
        let (back, events) = decode_report(&buf).unwrap();
        assert!(events.is_empty());
        assert_eq!(back.timings.len(), 2);
        assert_eq!(back.timings[0].comp, 1.0 / 3.0);
        assert_eq!(back.health.edges[3].retries, 2);
        assert_eq!(back.health.edges[9].dropped, 1);
        assert_eq!(back.health.max_mailbox_depth[1], 12);
        assert_eq!(back.health.mailbox_over_high_water, 4);
        assert_eq!(back.spans[0].cpi, 5);
        assert_eq!(back.spans[0].comp_end, 0.0035);
    }

    /// A rank's comm trace, including a tag at `u64::MAX`, survives the
    /// report frame. The name predates the binary frame, as above.
    #[test]
    fn rank_trace_json_round_trips() {
        let events = vec![CommEvent {
            kind: TraceKind::Wait,
            peer: 3,
            tag: u64::MAX,
            bytes: 0,
            start_s: 0.25,
            end_s: 0.375,
        }];
        let mut buf = Vec::new();
        encode_report(&TaskReport::default(), &events, &mut buf);
        let (_, back) = decode_report(&buf).unwrap();
        assert_eq!(back, events);
    }

    /// Sent cube blocks return to the pool once encoded, and received
    /// ones decode into pooled buffers: in steady state every frame is a
    /// hit on each side.
    #[test]
    fn pooled_frames_recycle_both_ways() {
        let pools = PipelinePools::default();
        let f = frame(&every_kind()[0]);
        for _ in 0..4 {
            let msg = WirePool::decode(&pools, &f);
            let mut again = Vec::new();
            encode_msg(&msg, &mut again);
            pools.retire(msg);
            assert_eq!(again, f);
        }
        let s = pools.cx.stats();
        assert_eq!((s.misses, s.hits, s.returned), (1, 3, 4));
    }
}
