//! Wire messages and the tag scheme.
//!
//! Every message carries a `seq` (the CPI index it belongs to) and a
//! `degraded` flag in addition to its payload. Tags already encode the
//! CPI, so in a healthy run `seq` is redundant — it exists so the
//! fault-tolerant receive path can *verify* that a matched message
//! really belongs to the CPI being assembled and discard late or
//! duplicated deliveries instead of corrupting double-buffer order.

use stap_core::Detection;
use stap_cube::{CCube, RCube};
use stap_math::CMat;
use std::sync::Arc;

/// One stream's CPI inside a resident-mode slot group: which ingestion
/// stream it belongs to and its per-stream sequence number (the index
/// that drives azimuth revisit and the weight temporal dependency, so
/// cross-stream batching stays bit-identical to per-stream serial runs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubCpi {
    /// Ingestion stream id.
    pub stream: u16,
    /// Per-stream CPI index.
    pub scpi: u32,
}

/// Payload variants that travel between pipeline ranks.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A packed complex cube block (raw CPI slabs, Doppler outputs,
    /// beamformed blocks).
    Cube(CCube),
    /// A packed real cube block (pulse-compressed power).
    Real(RCube),
    /// Weight matrices for a set of bins (easy: one per bin; hard:
    /// `num_segments` per bin, segment-major within each bin).
    Weights(Vec<CMat>),
    /// Per-sub-CPI detection lists from a CFAR node (to the driver),
    /// aligned with the slot's [`Msg::group`] order. The second vector
    /// (same alignment) flags sub-CPIs whose power lanes contained
    /// non-finite samples on this node — the serve layer folds it into
    /// per-stream health so a poisoned tenant is attributed, not the
    /// whole slot. Empty when screening is off.
    DetectionsGroup(Vec<Vec<Detection>>, Vec<bool>),
    /// Explicit "this CPI is lost on this edge" marker. Forwarding it
    /// (instead of just not sending) is what keeps the pipeline
    /// *draining* under faults: downstream receivers learn immediately
    /// that the CPI is gone rather than burning their edge timeout.
    Dropped,
    /// End-of-session sentinel, cascaded down the data
    /// edges so every task loop unwinds after its last slot.
    Shutdown,
    /// A wire frame that failed to decode (see
    /// [`crate::wire::decode_msg`]). The receiving loop quarantines it
    /// on its edge and treats the slot's input as lost.
    Malformed,
}

/// Everything that travels between pipeline ranks.
#[derive(Debug, Clone)]
pub struct Msg {
    /// CPI index this message belongs to (echoes the tag's low bits).
    /// The pipeline runs CPIs in slots, so this is the *slot* index.
    pub seq: u32,
    /// True when the sender computed this data in a degraded mode
    /// (e.g. beamformed with stale weights). ORed along the data path
    /// so the driver can classify the CPI outcome.
    pub degraded: bool,
    /// Slot composition: which `(stream, scpi)` pairs are
    /// coalesced into this slot, in axis-0 concatenation order. Built
    /// once per slot by the driver and shared by `Arc` so forwarding it
    /// along every edge costs one refcount, not an allocation. `None`
    /// on drop and shutdown markers.
    pub group: Option<Arc<[SubCpi]>>,
    /// The actual payload.
    pub payload: Payload,
}

impl Msg {
    /// A healthy message for CPI `cpi`.
    pub fn new(cpi: usize, payload: Payload) -> Msg {
        Msg {
            seq: cpi as u32,
            degraded: false,
            group: None,
            payload,
        }
    }

    /// A message for slot `slot` carrying the slot's
    /// stream composition.
    pub fn grouped(slot: usize, group: Arc<[SubCpi]>, payload: Payload) -> Msg {
        Msg {
            seq: slot as u32,
            degraded: false,
            group: Some(group),
            payload,
        }
    }
}

/// Logical communication edges, used in tags so messages for different
/// CPIs and edges never cross-match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Edge {
    /// Driver -> Doppler (raw CPI slabs).
    Input = 0,
    /// Doppler -> easy weight (gathered training cells).
    DopplerToEasyWt = 1,
    /// Doppler -> hard weight.
    DopplerToHardWt = 2,
    /// Doppler -> easy BF (reorganized full-range blocks).
    DopplerToEasyBf = 3,
    /// Doppler -> hard BF.
    DopplerToHardBf = 4,
    /// Easy weight -> easy BF (weight matrices).
    EasyWtToEasyBf = 5,
    /// Hard weight -> hard BF.
    HardWtToHardBf = 6,
    /// Easy BF -> pulse compression.
    EasyBfToPc = 7,
    /// Hard BF -> pulse compression.
    HardBfToPc = 8,
    /// Pulse compression -> CFAR.
    PcToCfar = 9,
    /// CFAR -> driver (detections).
    Output = 10,
}

/// Number of logical edges (sizes the per-edge health counters).
pub const NUM_EDGES: usize = 11;

/// Human-readable edge names, indexed by [`Edge`] discriminant. Used by
/// the trace exporters and the measured-vs-modeled reconciliation.
pub const EDGE_NAMES: [&str; NUM_EDGES] = [
    "input",
    "doppler->easy_wt",
    "doppler->hard_wt",
    "doppler->easy_bf",
    "doppler->hard_bf",
    "easy_wt->easy_bf",
    "hard_wt->hard_bf",
    "easy_bf->pc",
    "hard_bf->pc",
    "pc->cfar",
    "output",
];

/// Wire-byte attribution for a message, in the *Paragon encoding* the
/// machine model (`stap-machine` / `stap-sim`) prices: 8 bytes per
/// complex sample, 4 bytes per real sample. The host actually moves
/// 16-byte `Complex<f64>` values, but tracing in model units makes the
/// measured-vs-modeled byte reconciliation an exact-match check instead
/// of a constant-factor one.
pub fn wire_bytes(msg: &Msg) -> u64 {
    match &msg.payload {
        Payload::Cube(c) => 8 * c.len() as u64,
        Payload::Real(r) => 4 * r.len() as u64,
        Payload::Weights(ws) => ws.iter().map(|w| 8 * (w.rows() * w.cols()) as u64).sum(),
        // Output-edge payloads are unmodeled (the paper does not price
        // detection reports); 16 bytes per detection keeps the trace
        // honest about non-zero traffic.
        Payload::DetectionsGroup(gs, _) => gs.iter().map(|ds| 16 * ds.len() as u64).sum(),
        Payload::Dropped | Payload::Shutdown | Payload::Malformed => 0,
    }
}

/// Builds the tag for `edge` at CPI index `cpi`.
pub fn tag(edge: Edge, cpi: usize) -> u64 {
    ((edge as u64) << 48) | cpi as u64
}

/// CPI index encoded in a tag.
pub fn cpi_of_tag(t: u64) -> usize {
    (t & ((1u64 << 48) - 1)) as usize
}

/// Edge index encoded in a tag (indexes [`NUM_EDGES`]-sized tables).
pub fn edge_of_tag(t: u64) -> usize {
    (t >> 48) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique_per_edge_and_cpi() {
        let mut seen = std::collections::HashSet::new();
        for e in [
            Edge::Input,
            Edge::DopplerToEasyWt,
            Edge::DopplerToHardWt,
            Edge::DopplerToEasyBf,
            Edge::DopplerToHardBf,
            Edge::EasyWtToEasyBf,
            Edge::HardWtToHardBf,
            Edge::EasyBfToPc,
            Edge::HardBfToPc,
            Edge::PcToCfar,
            Edge::Output,
        ] {
            for cpi in [0usize, 1, 2, 1000, 1 << 20] {
                assert!(seen.insert(tag(e, cpi)), "collision at {e:?} cpi {cpi}");
            }
        }
    }

    #[test]
    fn tag_fields_round_trip() {
        for e in [Edge::Input, Edge::EasyWtToEasyBf, Edge::Output] {
            for cpi in [0usize, 7, 4095, (1 << 20) + 3] {
                let t = tag(e, cpi);
                assert_eq!(cpi_of_tag(t), cpi);
                assert_eq!(edge_of_tag(t), e as usize);
            }
        }
    }

    #[test]
    fn msg_constructors_stamp_seq_and_flags() {
        let m = Msg::new(42, Payload::Dropped);
        assert_eq!(m.seq, 42);
        assert!(!m.degraded);
        let m = Msg::grouped(7, Arc::from([]), Payload::Shutdown);
        assert_eq!(
            (m.seq, m.degraded, m.group.map(|g| g.len())),
            (7, false, Some(0))
        );
    }
}
