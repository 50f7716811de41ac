//! Node counts per task and the derived rank layout and partitions.

use stap_core::StapParams;
use stap_cube::block_ranges;
use std::ops::Range;

/// Task indices (paper numbering).
pub const DOPPLER: usize = 0;
/// Easy weight computation.
pub const EASY_WT: usize = 1;
/// Hard weight computation.
pub const HARD_WT: usize = 2;
/// Easy beamforming.
pub const EASY_BF: usize = 3;
/// Hard beamforming.
pub const HARD_BF: usize = 4;
/// Pulse compression.
pub const PC: usize = 5;
/// CFAR processing.
pub const CFAR: usize = 6;

/// Short task names matching the paper's tables.
pub const TASK_NAMES: [&str; 7] = [
    "Doppler filter",
    "easy weight",
    "hard weight",
    "easy BF",
    "hard BF",
    "pulse compr",
    "CFAR",
];

/// How many nodes each of the seven tasks gets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeAssignment(pub [usize; 7]);

impl NodeAssignment {
    /// Paper Table 7, case 1: 236 nodes.
    pub fn case1() -> Self {
        NodeAssignment([32, 16, 112, 16, 28, 16, 16])
    }

    /// Paper Table 7, case 2: 118 nodes.
    pub fn case2() -> Self {
        NodeAssignment([16, 8, 56, 8, 14, 8, 8])
    }

    /// Paper Table 7, case 3: 59 nodes.
    pub fn case3() -> Self {
        NodeAssignment([8, 4, 28, 4, 7, 4, 4])
    }

    /// Paper Table 9: case 2 plus 4 Doppler nodes (122 total).
    pub fn table9() -> Self {
        NodeAssignment([20, 8, 56, 8, 14, 8, 8])
    }

    /// Paper Table 10: Table 9 plus 8+8 nodes on PC and CFAR (138).
    pub fn table10() -> Self {
        NodeAssignment([20, 8, 56, 8, 14, 16, 16])
    }

    /// A tiny assignment for threaded tests on few cores.
    pub fn tiny() -> Self {
        NodeAssignment([2, 1, 2, 1, 1, 2, 1])
    }

    /// Total node count.
    pub fn total(&self) -> usize {
        self.0.iter().sum()
    }

    /// Nodes of task `t`.
    pub fn nodes(&self, t: usize) -> usize {
        self.0[t]
    }

    /// Global rank range of task `t` (tasks laid out consecutively;
    /// the driver rank comes after all task ranks).
    pub fn rank_range(&self, t: usize) -> Range<usize> {
        let start: usize = self.0[..t].iter().sum();
        start..start + self.0[t]
    }

    /// The task and local index of global rank `r` (`None` for the
    /// driver rank).
    pub fn task_of_rank(&self, r: usize) -> Option<(usize, usize)> {
        let mut start = 0;
        for t in 0..7 {
            if r < start + self.0[t] {
                return Some((t, r - start));
            }
            start += self.0[t];
        }
        None
    }

    /// The driver (source + sink) rank.
    pub fn driver_rank(&self) -> usize {
        self.total()
    }

    /// World size including the driver.
    pub fn world_size(&self) -> usize {
        self.total() + 1
    }
}

/// Per-task data partitions for a given parameter set and assignment.
///
/// * Doppler partitions the `K` axis;
/// * easy weight and easy BF partition the easy-bin index space
///   (`0..n_easy`);
/// * hard weight and hard BF partition the hard-bin index space
///   (`0..n_hard`);
/// * pulse compression and CFAR partition the natural bin space
///   (`0..N`).
#[derive(Clone, Debug)]
pub struct Partitions {
    /// Range-cell ranges per Doppler node.
    pub doppler_k: Vec<Range<usize>>,
    /// Easy-bin-index ranges per easy-weight node.
    pub easy_wt_bins: Vec<Range<usize>>,
    /// Hard-bin-index ranges per hard-weight node.
    pub hard_wt_bins: Vec<Range<usize>>,
    /// Easy-bin-index ranges per easy-BF node.
    pub easy_bf_bins: Vec<Range<usize>>,
    /// Hard-bin-index ranges per hard-BF node.
    pub hard_bf_bins: Vec<Range<usize>>,
    /// Natural-bin ranges per pulse-compression node.
    pub pc_bins: Vec<Range<usize>>,
    /// Natural-bin ranges per CFAR node.
    pub cfar_bins: Vec<Range<usize>>,
}

impl Partitions {
    /// Builds all partitions.
    pub fn new(params: &StapParams, a: &NodeAssignment) -> Self {
        Partitions {
            doppler_k: block_ranges(params.k_range, a.nodes(DOPPLER)),
            easy_wt_bins: block_ranges(params.n_easy(), a.nodes(EASY_WT)),
            hard_wt_bins: block_ranges(params.n_hard, a.nodes(HARD_WT)),
            easy_bf_bins: block_ranges(params.n_easy(), a.nodes(EASY_BF)),
            hard_bf_bins: block_ranges(params.n_hard, a.nodes(HARD_BF)),
            pc_bins: block_ranges(params.n_pulses, a.nodes(PC)),
            cfar_bins: block_ranges(params.n_pulses, a.nodes(CFAR)),
        }
    }

    /// The partition of task `t` (paper numbering).
    pub fn of(&self, t: usize) -> &[Range<usize>] {
        [
            &self.doppler_k,
            &self.easy_wt_bins,
            &self.hard_wt_bins,
            &self.easy_bf_bins,
            &self.hard_bf_bins,
            &self.pc_bins,
            &self.cfar_bins,
        ][t]
    }
}

/// Intersection of two ranges (`0..0` when they are disjoint).
pub fn overlap(a: &Range<usize>, b: &Range<usize>) -> Range<usize> {
    let s = a.start.max(b.start);
    let e = a.end.min(b.end);
    if s >= e {
        0..0
    } else {
        s..e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cases_total_correctly() {
        assert_eq!(NodeAssignment::case1().total(), 236);
        assert_eq!(NodeAssignment::case2().total(), 118);
        assert_eq!(NodeAssignment::case3().total(), 59);
        assert_eq!(NodeAssignment::table9().total(), 122);
        assert_eq!(NodeAssignment::table10().total(), 138);
    }

    #[test]
    fn rank_layout_is_consecutive_and_complete() {
        let a = NodeAssignment::case3();
        let mut next = 0;
        for t in 0..7 {
            let r = a.rank_range(t);
            assert_eq!(r.start, next);
            next = r.end;
        }
        assert_eq!(next, a.total());
        assert_eq!(a.driver_rank(), 59);
        assert_eq!(a.world_size(), 60);
    }

    #[test]
    fn task_of_rank_inverts_rank_range() {
        let a = NodeAssignment::case2();
        for r in 0..a.total() {
            let (t, local) = a.task_of_rank(r).unwrap();
            assert!(a.rank_range(t).contains(&r));
            assert_eq!(a.rank_range(t).start + local, r);
        }
        assert!(a.task_of_rank(a.driver_rank()).is_none());
    }

    #[test]
    fn partitions_cover_their_spaces() {
        let p = StapParams::paper();
        let parts = Partitions::new(&p, &NodeAssignment::case1());
        assert_eq!(parts.doppler_k.last().unwrap().end, 512);
        assert_eq!(parts.easy_wt_bins.last().unwrap().end, 72);
        assert_eq!(parts.hard_wt_bins.last().unwrap().end, 56);
        assert_eq!(parts.pc_bins.last().unwrap().end, 128);
        assert_eq!(parts.cfar_bins.last().unwrap().end, 128);
    }
}
