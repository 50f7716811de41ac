//! Block partitioning of cube axes across compute nodes.
//!
//! "Each task i is parallelized by evenly partitioning its work load among
//! P_i processors" — every task in the pipeline owns a contiguous block of
//! one axis of its input cube. [`block_ranges`] produces the balanced
//! decomposition (remainder elements go to the lowest ranks, so no two
//! nodes differ by more than one element), and [`AxisPartition`] names
//! which axis a task distributes.

use std::ops::Range;

/// Splits `0..len` into `parts` contiguous ranges whose lengths differ by
/// at most one. Panics when `parts == 0`.
pub fn block_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    assert!(parts > 0, "cannot partition into zero parts");
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// A block distribution of one cube axis over a task's nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AxisPartition {
    /// Which axis (0, 1 or 2) is distributed.
    pub axis: usize,
    /// Per-node ranges along that axis (one entry per node).
    pub ranges: Vec<Range<usize>>,
}

impl AxisPartition {
    /// A balanced block distribution of `len` elements of `axis` over
    /// `nodes` nodes.
    pub fn block(axis: usize, len: usize, nodes: usize) -> Self {
        assert!(axis < 3, "axis out of range");
        AxisPartition {
            axis,
            ranges: block_ranges(len, nodes),
        }
    }

    /// Number of nodes in the distribution.
    pub fn nodes(&self) -> usize {
        self.ranges.len()
    }

    /// The axis range node `p` owns.
    pub fn range_of(&self, p: usize) -> Range<usize> {
        self.ranges[p].clone()
    }

    /// Total axis length covered.
    pub fn len(&self) -> usize {
        self.ranges.last().map_or(0, |r| r.end)
    }

    /// True when the partition covers no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The full local shape node `p` sees for a cube of `global` shape.
    pub fn local_shape(&self, global: [usize; 3], p: usize) -> [usize; 3] {
        let mut s = global;
        s[self.axis] = self.ranges[p].len();
        s
    }
}

/// Intersection of two ranges (empty ranges normalize to `0..0`).
pub fn intersect(a: &Range<usize>, b: &Range<usize>) -> Range<usize> {
    let start = a.start.max(b.start);
    let end = a.end.min(b.end);
    if start >= end {
        0..0
    } else {
        start..end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split() {
        let r = block_ranges(512, 8);
        assert_eq!(r.len(), 8);
        assert!(r.iter().all(|x| x.len() == 64));
        assert_eq!(r[0], 0..64);
        assert_eq!(r[7], 448..512);
    }

    #[test]
    fn uneven_split_differs_by_at_most_one() {
        let r = block_ranges(128, 28);
        let total: usize = r.iter().map(|x| x.len()).sum();
        assert_eq!(total, 128);
        let min = r.iter().map(|x| x.len()).min().unwrap();
        let max = r.iter().map(|x| x.len()).max().unwrap();
        assert!(max - min <= 1);
        // Contiguous and ordered.
        for w in r.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn more_parts_than_elements_yields_empty_tails() {
        let r = block_ranges(3, 5);
        assert_eq!(r.iter().filter(|x| !x.is_empty()).count(), 3);
        let total: usize = r.iter().map(|x| x.len()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn local_shape_replaces_partitioned_axis() {
        let p = AxisPartition::block(1, 32, 4);
        assert_eq!(p.local_shape([512, 32, 128], 0), [512, 8, 128]);
    }

    #[test]
    fn intersect_cases() {
        assert_eq!(intersect(&(0..10), &(5..15)), 5..10);
        assert_eq!(intersect(&(0..5), &(5..10)), 0..0);
        assert_eq!(intersect(&(3..4), &(0..10)), 3..4);
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn zero_parts_panics() {
        block_ranges(10, 0);
    }
}
