//! Process-boundary codecs for the pipeline.
//!
//! Two serialization layers live here, both dependency-free:
//!
//! * the **binary [`Msg`] codec** ([`encode_msg`] / [`decode_msg`] /
//!   [`msg_codec`]) that the TCP transport uses to move pipeline
//!   messages between rank *processes*. Every `f64`
//!   travels as its little-endian bit pattern, so a cross-process run
//!   produces detections bit-identical to the in-process channel
//!   fabric — the property the transport-parity gate asserts. Cube
//!   bodies cross in one bulk pass each way. Decoding trusts no byte:
//!   every length is bounded by the frame before anything is allocated
//!   for it, and a frame that does not parse decodes to
//!   [`Payload::Malformed`], which the receiving loop quarantines.
//!   [`PipelinePools`] is the codec's [`WirePool`]: on a wire endpoint
//!   cube payloads decode into the rank's pool and sent cubes return
//!   to it, so each frame is one pool get and one put on either side;
//! * the **JSON result codecs** ([`rank_result_to_json`] /
//!   [`rank_result_from_json`], plus the [`stap_mp::RankTrace`]
//!   equivalents) that a child rank process uses to hand its
//!   [`RankResult`] back to the cluster parent over stdout. JSON
//!   numbers in `stap-util` print in shortest-roundtrip form, so
//!   timing floats survive; detections never take this path (they flow
//!   to the driver rank over the binary codec).

use crate::metrics::{CpiOutcome, EdgeHealth, PipelineHealth};
use crate::msg::{Msg, Payload, SubCpi};
use crate::runner::{DriverResult, RankResult, TaskReport};
use crate::tasks::PipelinePools;
use crate::trace::TaskSpan;
use stap_core::Detection;
use stap_cube::{CCube, RCube, SharedBufferPool};
use stap_math::{CMat, Cx};
use stap_mp::{CommEvent, RankTrace, TraceKind, WireCodec, WirePool};
use stap_util::Json;
use std::sync::Arc;

/// Bumped when the binary layout changes; a frame of another version
/// decodes to [`Payload::Malformed`] instead of being misread.
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

// ---------------------------------------------------------------------
// JSON result codecs (child rank process -> cluster parent).
// ---------------------------------------------------------------------

/// Serializes a rank's result for the cluster parent.
pub fn rank_result_to_json(r: &RankResult) -> Json {
    match r {
        RankResult::Task { task, node, report } => Json::obj([
            ("kind", Json::Str("task".into())),
            ("task", Json::Num(*task as f64)),
            ("node", Json::Num(*node as f64)),
            ("report", task_report_to_json(report)),
        ]),
        RankResult::Driver(d) => Json::obj([
            ("kind", Json::Str("driver".into())),
            (
                "detections",
                Json::arr(d.detections.iter().map(|ds| detections_to_json(ds))),
            ),
            ("inject_t", f64_arr(&d.inject_t)),
            ("complete_t", f64_arr(&d.complete_t)),
            (
                "outcomes",
                Json::arr(d.outcomes.iter().map(|o| {
                    Json::Str(
                        match o {
                            CpiOutcome::Ok => "ok",
                            CpiOutcome::DegradedStaleWeights => "degraded",
                            CpiOutcome::Dropped => "dropped",
                        }
                        .into(),
                    )
                })),
            ),
            ("health", health_to_json(&d.health)),
        ]),
    }
}

/// Inverse of [`rank_result_to_json`].
pub fn rank_result_from_json(j: &Json) -> Result<RankResult, String> {
    match str_field(j, "kind")? {
        "task" => Ok(RankResult::Task {
            task: usize_field(j, "task")?,
            node: usize_field(j, "node")?,
            report: task_report_from_json(j.get("report").ok_or("missing report")?)?,
        }),
        "driver" => {
            let detections = arr_field(j, "detections")?
                .iter()
                .map(detections_from_json)
                .collect::<Result<_, _>>()?;
            let outcomes = arr_field(j, "outcomes")?
                .iter()
                .map(|o| match o {
                    Json::Str(s) if s == "ok" => Ok(CpiOutcome::Ok),
                    Json::Str(s) if s == "degraded" => Ok(CpiOutcome::DegradedStaleWeights),
                    Json::Str(s) if s == "dropped" => Ok(CpiOutcome::Dropped),
                    other => Err(format!("bad outcome {other:?}")),
                })
                .collect::<Result<_, _>>()?;
            Ok(RankResult::Driver(DriverResult {
                detections,
                inject_t: f64_vec(j, "inject_t")?,
                complete_t: f64_vec(j, "complete_t")?,
                outcomes,
                health: health_from_json(j.get("health").ok_or("missing health")?)?,
            }))
        }
        other => Err(format!("unknown rank result kind {other:?}")),
    }
}

/// Serializes one rank's comm trace (for merged cluster timelines).
pub fn rank_trace_to_json(t: &RankTrace) -> Json {
    Json::obj([
        ("rank", Json::Num(t.rank as f64)),
        (
            "events",
            Json::arr(t.events.iter().map(|e| {
                Json::obj([
                    ("kind", Json::Str(e.kind.name().into())),
                    ("peer", Json::Num(e.peer as f64)),
                    // Tags may exceed f64's exact integers (the edge
                    // sits in the top 16 bits); bit-exact via string.
                    ("tag", Json::Str(e.tag.to_string())),
                    ("bytes", Json::Num(e.bytes as f64)),
                    ("start_s", Json::Num(e.start_s)),
                    ("end_s", Json::Num(e.end_s)),
                ])
            })),
        ),
    ])
}

/// Inverse of [`rank_trace_to_json`].
pub fn rank_trace_from_json(j: &Json) -> Result<RankTrace, String> {
    let events = arr_field(j, "events")?
        .iter()
        .map(|e| {
            let kind = match str_field(e, "kind")? {
                "send" => TraceKind::Send,
                "recv" => TraceKind::Recv,
                "wait" => TraceKind::Wait,
                "redistribute" => TraceKind::Redistribute,
                other => return Err(format!("unknown trace kind {other:?}")),
            };
            Ok(CommEvent {
                kind,
                peer: usize_field(e, "peer")?,
                tag: str_field(e, "tag")?
                    .parse::<u64>()
                    .map_err(|e| format!("bad tag: {e}"))?,
                bytes: usize_field(e, "bytes")? as u64,
                start_s: num_field(e, "start_s")?,
                end_s: num_field(e, "end_s")?,
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(RankTrace {
        rank: usize_field(j, "rank")?,
        events,
    })
}

fn task_report_to_json(r: &TaskReport) -> Json {
    Json::obj([
        (
            "timings",
            Json::arr(
                r.timings
                    .iter()
                    .map(|t| Json::arr([t.recv, t.comp, t.send, t.recv_idle].map(Json::Num))),
            ),
        ),
        ("health", health_to_json(&r.health)),
        (
            "spans",
            Json::arr(r.spans.iter().map(|s| {
                Json::obj([
                    ("cpi", Json::Num(s.cpi as f64)),
                    ("start", Json::Num(s.start)),
                    ("recv_end", Json::Num(s.recv_end)),
                    ("comp_end", Json::Num(s.comp_end)),
                    ("send_end", Json::Num(s.send_end)),
                ])
            })),
        ),
    ])
}

fn task_report_from_json(j: &Json) -> Result<TaskReport, String> {
    let timings = arr_field(j, "timings")?
        .iter()
        .map(|t| {
            let xs = match t {
                Json::Arr(xs) if xs.len() == 4 => xs,
                other => return Err(format!("bad timing {other:?}")),
            };
            let f = |i: usize| xs[i].as_f64().ok_or(format!("bad timing field {i}"));
            Ok(crate::metrics::TaskTiming {
                recv: f(0)?,
                comp: f(1)?,
                send: f(2)?,
                recv_idle: f(3)?,
            })
        })
        .collect::<Result<_, _>>()?;
    let spans = arr_field(j, "spans")?
        .iter()
        .map(|s| {
            Ok(TaskSpan {
                cpi: usize_field(s, "cpi")?,
                start: num_field(s, "start")?,
                recv_end: num_field(s, "recv_end")?,
                comp_end: num_field(s, "comp_end")?,
                send_end: num_field(s, "send_end")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(TaskReport {
        timings,
        health: health_from_json(j.get("health").ok_or("missing health")?)?,
        spans,
        ..TaskReport::default()
    })
}

fn health_to_json(h: &PipelineHealth) -> Json {
    Json::obj([
        (
            "edges",
            Json::arr(h.edges.iter().map(|e| {
                Json::arr(
                    [
                        e.retries,
                        e.dropped,
                        e.stale_weights,
                        e.quarantined,
                        e.late_or_dup,
                    ]
                    .map(|v| Json::Num(v as f64)),
                )
            })),
        ),
        ("dropped_cpis", Json::Num(h.dropped_cpis as f64)),
        ("degraded_cpis", Json::Num(h.degraded_cpis as f64)),
        (
            "max_mailbox_depth",
            Json::arr(h.max_mailbox_depth.iter().map(|&v| Json::Num(v as f64))),
        ),
        (
            "mailbox_over_high_water",
            Json::Num(h.mailbox_over_high_water as f64),
        ),
    ])
}

fn health_from_json(j: &Json) -> Result<PipelineHealth, String> {
    let mut h = PipelineHealth::default();
    let edges = arr_field(j, "edges")?;
    if edges.len() != h.edges.len() {
        return Err(format!(
            "expected {} edges, got {}",
            h.edges.len(),
            edges.len()
        ));
    }
    for (slot, e) in h.edges.iter_mut().zip(edges) {
        let xs = match e {
            Json::Arr(xs) if xs.len() == 5 => xs,
            other => return Err(format!("bad edge health {other:?}")),
        };
        let f = |i: usize| -> Result<u64, String> {
            xs[i]
                .as_f64()
                .map(|v| v as u64)
                .ok_or(format!("bad edge counter {i}"))
        };
        *slot = EdgeHealth {
            retries: f(0)?,
            dropped: f(1)?,
            stale_weights: f(2)?,
            quarantined: f(3)?,
            late_or_dup: f(4)?,
        };
    }
    h.dropped_cpis = usize_field(j, "dropped_cpis")? as u64;
    h.degraded_cpis = usize_field(j, "degraded_cpis")? as u64;
    let depths = arr_field(j, "max_mailbox_depth")?;
    for (slot, d) in h.max_mailbox_depth.iter_mut().zip(depths) {
        *slot = d.as_f64().ok_or("bad mailbox depth")? as u64;
    }
    h.mailbox_over_high_water = usize_field(j, "mailbox_over_high_water")? as u64;
    Ok(h)
}

fn detections_to_json(ds: &[Detection]) -> Json {
    // Power/threshold as bit patterns: detection floats must survive
    // any path bit-exactly for the parity digests.
    Json::arr(ds.iter().map(|d| {
        Json::arr([
            Json::Num(d.bin as f64),
            Json::Num(d.beam as f64),
            Json::Num(d.range as f64),
            Json::Str(d.power.to_bits().to_string()),
            Json::Str(d.threshold.to_bits().to_string()),
        ])
    }))
}

fn detections_from_json(j: &Json) -> Result<Vec<Detection>, String> {
    let items = match j {
        Json::Arr(items) => items,
        other => return Err(format!("bad detections {other:?}")),
    };
    items
        .iter()
        .map(|d| {
            let xs = match d {
                Json::Arr(xs) if xs.len() == 5 => xs,
                other => return Err(format!("bad detection {other:?}")),
            };
            let idx = |i: usize| -> Result<usize, String> {
                xs[i]
                    .as_f64()
                    .map(|v| v as usize)
                    .ok_or(format!("bad detection index {i}"))
            };
            let bits = |i: usize| -> Result<f64, String> {
                match &xs[i] {
                    Json::Str(s) => s
                        .parse::<u64>()
                        .map(f64::from_bits)
                        .map_err(|e| format!("bad detection bits: {e}")),
                    other => Err(format!("bad detection float {other:?}")),
                }
            };
            Ok(Detection {
                bin: idx(0)?,
                beam: idx(1)?,
                range: idx(2)?,
                power: bits(3)?,
                threshold: bits(4)?,
            })
        })
        .collect()
}

fn f64_arr(xs: &[f64]) -> Json {
    Json::arr(xs.iter().map(|&v| Json::Num(v)))
}

fn f64_vec(j: &Json, key: &str) -> Result<Vec<f64>, String> {
    arr_field(j, key)?
        .iter()
        .map(|v| v.as_f64().ok_or(format!("bad number in {key}")))
        .collect()
}

fn str_field<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    match j.get(key) {
        Some(Json::Str(s)) => Ok(s),
        other => Err(format!("missing/bad string field {key}: {other:?}")),
    }
}

fn num_field(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or(format!("missing/bad numeric field {key}"))
}

fn usize_field(j: &Json, key: &str) -> Result<usize, String> {
    num_field(j, key).map(|v| v as usize)
}

fn arr_field<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match j.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        other => Err(format!("missing/bad array field {key}: {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TaskTiming;

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

    /// What a socket may hand the decoder: every truncation, single bit
    /// flips and length fields inflated at every offset. Nothing may
    /// panic; every unmodified frame must come back bit for bit (as its
    /// re-encoding), through the plain codec and through the pools.
    #[test]
    fn no_frame_bytes_panic_the_decoder_and_clean_frames_round_trip() {
        let pools = PipelinePools::default();
        let frames: Vec<Vec<u8>> = every_kind().iter().map(frame).collect();
        for f in &frames {
            assert_eq!(frame(&decode_msg(f)), *f, "plain codec round trip");
            let pooled = WirePool::decode(&pools, f);
            assert_eq!(frame(&pooled), *f, "pooled round trip");
            pools.retire(pooled);
            for cut in 0..f.len() {
                assert!(
                    matches!(decode_msg(&f[..cut]).payload, Payload::Malformed),
                    "a frame cut at {cut} of {} decoded",
                    f.len()
                );
            }
            for at in 0..f.len().saturating_sub(3) {
                for big in [u32::MAX, 1 << 31, 1 << 28, 0x0001_0001] {
                    let mut g = f.clone();
                    g[at..at + 4].copy_from_slice(&big.to_le_bytes());
                    let _ = decode_msg(&g);
                    let _ = WirePool::decode(&pools, &g);
                }
            }
            let mut g = f.clone();
            g.push(0);
            assert!(matches!(decode_msg(&g).payload, Payload::Malformed));
        }
        stap_util::check::check("wire frames under bit flips", 400, |g| {
            let mut f = g.choose(&frames.iter().collect::<Vec<_>>()).clone();
            for _ in 0..g.int(1, 4) {
                let bit = g.int(0, 8 * f.len());
                f[bit / 8] ^= 1 << (bit % 8);
            }
            let _ = decode_msg(&f);
            let _ = WirePool::decode(&pools, &f);
        });
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
        let j = rank_result_to_json(&RankResult::Task {
            task: 6,
            node: 1,
            report,
        });
        let text = j.to_string_compact();
        let back = rank_result_from_json(&Json::parse(&text).unwrap()).unwrap();
        match back {
            RankResult::Task { task, node, report } => {
                assert_eq!((task, node), (6, 1));
                assert_eq!(report.timings.len(), 2);
                assert_eq!(report.timings[0].comp, 1.0 / 3.0);
                assert_eq!(report.health.edges[3].retries, 2);
                assert_eq!(report.health.edges[9].dropped, 1);
                assert_eq!(report.health.max_mailbox_depth[1], 12);
                assert_eq!(report.health.mailbox_over_high_water, 4);
                assert_eq!(report.spans[0].cpi, 5);
                assert_eq!(report.spans[0].comp_end, 0.0035);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn driver_result_json_keeps_detection_bits() {
        let d = DriverResult {
            detections: vec![vec![det(1, 2, 3, 0.1 + 0.2, 1.0e-300)], Vec::new()],
            inject_t: vec![0.0, 0.125],
            complete_t: vec![0.5, 0.625],
            outcomes: vec![CpiOutcome::Ok, CpiOutcome::Dropped],
            health: PipelineHealth::default(),
        };
        let text = rank_result_to_json(&RankResult::Driver(d)).to_string_compact();
        match rank_result_from_json(&Json::parse(&text).unwrap()).unwrap() {
            RankResult::Driver(back) => {
                assert_eq!(
                    back.detections[0][0].power.to_bits(),
                    (0.1f64 + 0.2).to_bits()
                );
                assert_eq!(
                    back.detections[0][0].threshold.to_bits(),
                    1.0e-300f64.to_bits()
                );
                assert!(back.detections[1].is_empty());
                assert_eq!(back.outcomes, vec![CpiOutcome::Ok, CpiOutcome::Dropped]);
                assert_eq!(back.complete_t, vec![0.5, 0.625]);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn rank_trace_json_round_trips() {
        let t = RankTrace {
            rank: 3,
            events: vec![CommEvent {
                kind: TraceKind::Wait,
                peer: 3,
                tag: u64::MAX,
                bytes: 0,
                start_s: 0.25,
                end_s: 0.375,
            }],
        };
        let text = rank_trace_to_json(&t).to_string_compact();
        let back = rank_trace_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.rank, 3);
        assert_eq!(back.events, t.events);
    }
}
