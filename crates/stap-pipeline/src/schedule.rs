//! The communication schedule: every message a slot sends, derived once
//! from the partitions.
//!
//! The paper derives each inter-task redistribution (§5, Figs. 4 and 8)
//! from the partitions of the two tasks it joins. [`Schedule::new`] does
//! that once per world, after checking that each partition covers its
//! space exactly once: one [`Entry`] per (edge, sender, receiver)
//! message, with its payload kind and shape. The driver sends each
//! Doppler node its range slab; a Doppler node sends every node of the
//! four bin-partitioned tasks a block, even one without rows; a weight
//! node sends only the beamform nodes whose bins overlap its own; a
//! beamform node sends every PC node, and a PC node every CFAR node, its
//! run of their bins, even an empty one; a CFAR node reports to the
//! driver. The task loops route by it, the pools are reserved by it, each
//! receive is checked against it ([`Entry::admits`]) and `stap-sim`
//! prices it.

use crate::assignment::{overlap, NodeAssignment, Partitions, TASK_NAMES};
use crate::assignment::{CFAR, DOPPLER, EASY_BF, EASY_WT, HARD_BF, HARD_WT, PC};
use crate::elastic::task_capacity;
use crate::msg::{Edge, Msg, Payload};
use stap_core::training::{easy_training_cells, hard_training_cells};
use stap_core::StapParams;
use std::ops::Range;

/// What a message on an edge carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// [`Payload::Cube`]: complex samples, 8 bytes each on the model's wire.
    Cube,
    /// [`Payload::Real`]: real samples, 4 bytes each.
    Real,
    /// [`Payload::Weights`]: weight matrices, 8 bytes per entry.
    Weights,
    /// [`Payload::DetectionsGroup`]: one detection list per member CPI
    /// (unmodeled: the paper does not price detection reports).
    Detections,
}

/// One message of a slot.
#[derive(Clone, Debug)]
pub struct Entry {
    /// The logical edge (and tag space) it travels on.
    pub edge: Edge,
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Payload kind.
    pub kind: Kind,
    /// Per member CPI: a block's `[axis 0, axis 1, axis 2]` (a group's
    /// members are stacked along axis 0), a weight message's
    /// `[matrices, rows, columns]`, and `[1, 0, 0]` (one list) for
    /// detections.
    pub shape: [usize; 3],
    /// The slice of the edge's partitioned axis the message carries:
    /// range cells on the input edge; easy- or hard-bin indices from
    /// Doppler up to and including the beamformers' out-edges; natural
    /// bins on `pc->cfar`; empty on the output edge.
    pub part: Range<usize>,
    /// Out of Doppler, the rows of the sender's range slab each bin
    /// carries, ascending: every row to a beamformer, the training cells
    /// to a weight task. Empty on every other edge.
    pub rows: Vec<usize>,
}

impl Entry {
    /// The block shape for a group of `b` member CPIs.
    pub fn block(&self, b: usize) -> [usize; 3] {
        let [n0, n1, n2] = self.shape;
        [b * n0, n1, n2]
    }

    /// Wire bytes per member CPI in the machine model's encoding (see
    /// [`crate::msg::wire_bytes`]).
    pub fn bytes_per_cpi(&self) -> u64 {
        let n = self.shape.iter().product::<usize>() as u64;
        match self.kind {
            Kind::Cube | Kind::Weights => 8 * n,
            Kind::Real => 4 * n,
            Kind::Detections => 0,
        }
    }

    /// Whether `msg` is this entry's message for a group of at most
    /// `max_group` CPIs: it carries a non-empty group no longer than
    /// that, and a payload of this entry's kind and of its shape for
    /// that group. A receive quarantines anything else.
    pub fn admits(&self, msg: &Msg, max_group: usize) -> bool {
        let b = msg.group.as_ref().map_or(0, |g| g.len());
        if b == 0 || b > max_group {
            return false;
        }
        let [n0, n1, n2] = self.block(b);
        match (&msg.payload, self.kind) {
            (Payload::Cube(c), Kind::Cube) => c.shape() == [n0, n1, n2],
            (Payload::Real(r), Kind::Real) => r.shape() == [n0, n1, n2],
            (Payload::Weights(ws), Kind::Weights) => {
                ws.len() == n0 && ws.iter().all(|w| (w.rows(), w.cols()) == (n1, n2))
            }
            (Payload::DetectionsGroup(ds, mask), Kind::Detections) => {
                ds.len() == n0 && (mask.is_empty() || mask.len() == n0)
            }
            _ => false,
        }
    }
}

/// Every message one slot sends, edge by edge in [`Edge`] order, then by
/// sending and by receiving rank, and the partitions it was derived from.
#[derive(Clone, Debug)]
pub struct Schedule {
    entries: Vec<Entry>,
    parts: Partitions,
}

impl Schedule {
    /// Derives the schedule of `assign` under `parts`, or says which
    /// partition does not cover its space exactly once, in node order (a
    /// gap, an overlap, a range past the end or a part count other than
    /// the task's node count).
    pub fn new(p: &StapParams, assign: &NodeAssignment, parts: Partitions) -> Result<Self, String> {
        for (task, len) in task_capacity(p).into_iter().enumerate() {
            let (ranges, mut end) = (parts.of(task), 0);
            let tiles = ranges.iter().all(|r| {
                let next = r.start == end && r.start <= r.end;
                end = r.end;
                next
            });
            if !tiles || end != len || ranges.len() != assign.nodes(task) {
                let (name, nodes) = (TASK_NAMES[task], assign.nodes(task));
                return Err(format!(
                    "the {name} partition {ranges:?} does not cover 0..{len} once over {nodes} nodes"
                ));
            }
        }
        let (j, m, k, segs) = (p.j_channels, p.m_beams, p.k_range, p.num_segments());
        let (easy_bins, hard_bins) = (p.easy_bins(), p.hard_bins());
        let first = |t: usize| assign.rank_range(t).start;
        let driver = assign.driver_rank();
        let mut entries = Vec::new();
        let mut push = |edge, (src, dst), shape, part, rows| {
            let kind = match edge {
                Edge::EasyWtToEasyBf | Edge::HardWtToHardBf => Kind::Weights,
                Edge::PcToCfar => Kind::Real,
                Edge::Output => Kind::Detections,
                _ => Kind::Cube,
            };
            entries.push(Entry {
                edge,
                src,
                dst,
                kind,
                shape,
                part,
                rows,
            })
        };
        for (q, kr) in parts.doppler_k.iter().enumerate() {
            let to = (driver, first(DOPPLER) + q);
            push(
                Edge::Input,
                to,
                [kr.len(), j, p.n_pulses],
                kr.clone(),
                vec![],
            );
        }
        // Out of Doppler: each node's slab rows an edge carries (every
        // row, or the training cells in it), to every node of the task.
        let easy_cells = easy_training_cells(p);
        let hard_cells: Vec<usize> = (0..segs).flat_map(|s| hard_training_cells(p, s)).collect();
        for (edge, task, cells, width) in [
            (Edge::DopplerToEasyWt, EASY_WT, Some(&easy_cells), j),
            (Edge::DopplerToHardWt, HARD_WT, Some(&hard_cells), 2 * j),
            (Edge::DopplerToEasyBf, EASY_BF, None, j),
            (Edge::DopplerToHardBf, HARD_BF, None, 2 * j),
        ] {
            for (q, kr) in parts.doppler_k.iter().enumerate() {
                let rows: Vec<usize> = match cells {
                    Some(cells) => (cells.iter().filter(|c| kr.contains(c)))
                        .map(|c| c - kr.start)
                        .collect(),
                    None => (0..kr.len()).collect(),
                };
                for (r, bins) in parts.of(task).iter().enumerate() {
                    let (to, shape) = (
                        (first(DOPPLER) + q, first(task) + r),
                        [bins.len(), rows.len(), width],
                    );
                    push(edge, to, shape, bins.clone(), rows.clone());
                }
            }
        }
        for (edge, (wt, bf), per_bin, rows) in [
            (Edge::EasyWtToEasyBf, (EASY_WT, EASY_BF), 1, j),
            (Edge::HardWtToHardBf, (HARD_WT, HARD_BF), segs, 2 * j),
        ] {
            for (q, wt_bins) in parts.of(wt).iter().enumerate() {
                for (r, bf_bins) in parts.of(bf).iter().enumerate() {
                    let (ov, to) = (overlap(wt_bins, bf_bins), (first(wt) + q, first(bf) + r));
                    if !ov.is_empty() {
                        push(edge, to, [ov.len() * per_bin, rows, m], ov, vec![]);
                    }
                }
            }
        }
        // Beamform -> PC: the run of a beamform node's ascending bins
        // whose natural bin a PC node owns.
        for (edge, bf, bins) in [
            (Edge::EasyBfToPc, EASY_BF, &easy_bins),
            (Edge::HardBfToPc, HARD_BF, &hard_bins),
        ] {
            for (r, idx) in parts.of(bf).iter().enumerate() {
                for (t, pc) in parts.pc_bins.iter().enumerate() {
                    let start =
                        idx.start + (idx.clone().take_while(|&i| bins[i] < pc.start)).count();
                    let len = (idx.clone().filter(|&i| pc.contains(&bins[i]))).count();
                    let to = (first(bf) + r, first(PC) + t);
                    push(edge, to, [len, m, k], start..start + len, vec![]);
                }
            }
        }
        for (t, pc) in parts.pc_bins.iter().enumerate() {
            for (c, cfar) in parts.cfar_bins.iter().enumerate() {
                let (ov, to) = (overlap(pc, cfar), (first(PC) + t, first(CFAR) + c));
                push(Edge::PcToCfar, to, [ov.len(), m, k], ov, vec![]);
            }
        }
        for c in assign.rank_range(CFAR) {
            push(Edge::Output, (c, driver), [1, 0, 0], 0..0, vec![]);
        }
        Ok(Schedule { entries, parts })
    }

    /// Every entry, in schedule order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// The partitions the schedule was derived from.
    pub fn parts(&self) -> &Partitions {
        &self.parts
    }

    /// What `rank` sends on `edge`, by receiving rank.
    pub fn sends(&self, rank: usize, edge: Edge) -> impl Iterator<Item = &Entry> {
        (self.entries.iter()).filter(move |e| e.edge == edge && e.src == rank)
    }

    /// What `rank` receives on `edge`, by sending rank.
    pub fn recvs(&self, rank: usize, edge: Edge) -> impl Iterator<Item = &Entry> {
        (self.entries.iter()).filter(move |e| e.edge == edge && e.dst == rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each task's partition perturbed four ways — a gap, an overlap, a
    /// range past the end and a node without a part — is rejected before
    /// anything is built on it.
    #[test]
    fn a_partition_that_does_not_cover_its_space_once_is_rejected() {
        let p = StapParams::reduced();
        let assign = NodeAssignment([2; 7]);
        let parts = Partitions::new(&p, &assign);
        assert!(Schedule::new(&p, &assign, parts.clone()).is_ok());
        let perturbations: [fn(&mut Vec<Range<usize>>); 4] = [
            |r| r[0].start += 1,
            |r| r[0].end += 1,
            |r| r[1].end += 1,
            |r| {
                r.pop();
            },
        ];
        for (task, name) in TASK_NAMES.iter().enumerate() {
            for (i, perturb) in perturbations.iter().enumerate() {
                let mut bad = parts.clone();
                perturb(match task {
                    DOPPLER => &mut bad.doppler_k,
                    EASY_WT => &mut bad.easy_wt_bins,
                    HARD_WT => &mut bad.hard_wt_bins,
                    EASY_BF => &mut bad.easy_bf_bins,
                    HARD_BF => &mut bad.hard_bf_bins,
                    PC => &mut bad.pc_bins,
                    _ => &mut bad.cfar_bins,
                });
                let err = Schedule::new(&p, &assign, bad).expect_err("a perturbed partition");
                assert!(err.contains(name), "task {task}, case {i}: {err}");
            }
        }
    }
}
