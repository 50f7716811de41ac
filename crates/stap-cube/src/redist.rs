//! All-to-all personalized redistribution plans.
//!
//! "Due to different partitioning strategies, an all-to-all personalized
//! communication scheme is required for data redistribution from the
//! Doppler filter processing task to the weight computation task."
//!
//! A [`RedistPlan`] describes how a cube distributed along one axis over
//! `P_src` nodes becomes a (possibly axis-permuted) cube distributed along
//! another axis over `P_dst` nodes. For every (sender, receiver) pair it
//! records the sub-block to extract — in *source* coordinates — and where
//! it lands in the receiver's local cube (destination coordinates).
//! Senders use [`Cube::extract_permuted`] to pack (collection +
//! reorganization in one strided pass); receivers use [`Cube::place`].
//!
//! The plan is pure metadata, so the same object drives both the real
//! threaded runtime (`stap-mp`) and the Paragon-scale discrete-event
//! simulator (`stap-sim`), which charges the machine model per block.
//!
//! **Packing cost**: the pack is a strided gather whose cost depends on
//! the permutation. [`Cube::extract_permuted_into`] applies a *run
//! fusion rule* — when the output's inner axis is source-contiguous
//! (`perm[2] == 2`) the gather collapses into maximal `copy_from_slice`
//! runs, folding outer axes in while strides chain; otherwise (e.g. the
//! Doppler→beamform `perm = [2, 0, 1]`, whose runs are all length 1) it
//! falls back to a 16x16 transpose-blocked gather so each tile reuses
//! the source cache lines it pulls. See `Cube::extract_permuted_into`
//! for the precise rule.

//! ```
//! use stap_cube::{AxisPartition, Cube, RedistPlan};
//!
//! // (K, J, N) on 4 nodes along K -> (N, K, J) on 2 nodes along N.
//! let plan = RedistPlan::new(
//!     [16, 4, 8],
//!     AxisPartition::block(0, 16, 4),
//!     AxisPartition::block(0, 8, 2),
//!     [2, 0, 1],
//! );
//! // Every sender talks to every receiver, and nothing is lost:
//! assert_eq!(plan.blocks.len(), 8);
//! let total: usize = plan.blocks.iter().map(|b| b.elements).sum();
//! assert_eq!(total, 16 * 4 * 8);
//! ```

use crate::cube::Cube;
use crate::partition::{intersect, AxisPartition};
use std::ops::Range;

/// One sender-to-receiver transfer within a redistribution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RedistBlock {
    /// Sending node within the source task.
    pub src: usize,
    /// Receiving node within the destination task.
    pub dst: usize,
    /// Block to extract, in global *source* coordinates.
    pub src_ranges: [Range<usize>; 3],
    /// Where the (permuted) block lands in the receiver's local cube.
    pub dst_offset: [usize; 3],
    /// Number of elements in the block.
    pub elements: usize,
}

/// A complete redistribution: source partition, destination partition,
/// axis permutation, and the per-pair transfer blocks.
#[derive(Clone, Debug)]
pub struct RedistPlan {
    /// Global shape in source coordinates.
    pub src_shape: [usize; 3],
    /// Global shape after permutation (destination coordinates).
    pub dst_shape: [usize; 3],
    /// Output axis `i` is source axis `perm[i]`.
    pub perm: [usize; 3],
    /// How the source task distributes its cube.
    pub src_part: AxisPartition,
    /// How the destination task distributes the permuted cube.
    pub dst_part: AxisPartition,
    /// All non-empty transfers.
    pub blocks: Vec<RedistBlock>,
}

impl RedistPlan {
    /// Plans the redistribution of a `src_shape` cube, distributed by
    /// `src_part`, into the `perm`-permuted layout distributed by
    /// `dst_part` (whose axis refers to *destination* coordinates).
    pub fn new(
        src_shape: [usize; 3],
        src_part: AxisPartition,
        dst_part: AxisPartition,
        perm: [usize; 3],
    ) -> Self {
        let dst_shape = [src_shape[perm[0]], src_shape[perm[1]], src_shape[perm[2]]];
        assert_eq!(
            src_part.len(),
            src_shape[src_part.axis],
            "source partition does not cover its axis"
        );
        assert_eq!(
            dst_part.len(),
            dst_shape[dst_part.axis],
            "destination partition does not cover its axis"
        );
        // The destination's distributed axis, expressed in source coords.
        let dst_axis_src = perm[dst_part.axis];
        let mut blocks = Vec::new();
        for (src, s_range) in src_part.ranges.iter().enumerate() {
            for (dst, d_range) in dst_part.ranges.iter().enumerate() {
                // Block owned by sender along src axis, needed by receiver
                // along (source-coord) destination axis.
                let mut ranges = [0..src_shape[0], 0..src_shape[1], 0..src_shape[2]];
                ranges[src_part.axis] = s_range.clone();
                if src_part.axis == dst_axis_src {
                    ranges[src_part.axis] = intersect(s_range, d_range);
                } else {
                    ranges[dst_axis_src] = d_range.clone();
                }
                let elements: usize = ranges.iter().map(|r| r.len()).product();
                if elements == 0 {
                    continue;
                }
                // Receiver-local offset: permute the block start, subtract
                // the receiver's own origin on its distributed axis.
                let mut dst_offset = [
                    ranges[perm[0]].start,
                    ranges[perm[1]].start,
                    ranges[perm[2]].start,
                ];
                dst_offset[dst_part.axis] -= d_range.start;
                // Axes the destination does NOT distribute span the full
                // global extent locally, so their offsets stay global...
                // except the *source* distributed axis, which is global in
                // the receiver's cube too (receivers assemble the full
                // extent of every non-distributed axis).
                blocks.push(RedistBlock {
                    src,
                    dst,
                    src_ranges: ranges,
                    dst_offset,
                    elements,
                });
            }
        }
        RedistPlan {
            src_shape,
            dst_shape,
            perm,
            src_part,
            dst_part,
            blocks,
        }
    }

    /// The local (permuted) shape receiver `p` assembles.
    pub fn dst_local_shape(&self, p: usize) -> [usize; 3] {
        self.dst_part.local_shape(self.dst_shape, p)
    }

    /// The local (source-layout) shape sender `p` holds.
    pub fn src_local_shape(&self, p: usize) -> [usize; 3] {
        self.src_part.local_shape(self.src_shape, p)
    }

    /// Transfers sent by node `src`.
    pub fn sends_of(&self, src: usize) -> impl Iterator<Item = &RedistBlock> {
        self.blocks.iter().filter(move |b| b.src == src)
    }

    /// Transfers received by node `dst`.
    pub fn recvs_of(&self, dst: usize) -> impl Iterator<Item = &RedistBlock> {
        self.blocks.iter().filter(move |b| b.dst == dst)
    }

    /// Total elements sender `src` ships.
    pub fn send_elements(&self, src: usize) -> usize {
        self.sends_of(src).map(|b| b.elements).sum()
    }

    /// Total elements receiver `dst` assembles.
    pub fn recv_elements(&self, dst: usize) -> usize {
        self.recvs_of(dst).map(|b| b.elements).sum()
    }

    /// Packs the message sender `src` must ship for `block`, given the
    /// sender's *local* cube (its slab of the global source cube).
    pub fn pack<T: Copy + Default>(&self, block: &RedistBlock, local: &Cube<T>) -> Cube<T> {
        let own = self.src_part.range_of(block.src);
        let mut r = block.src_ranges.clone();
        // Convert the distributed axis to sender-local coordinates.
        r[self.src_part.axis] =
            (r[self.src_part.axis].start - own.start)..(r[self.src_part.axis].end - own.start);
        local.extract_permuted(r[0].clone(), r[1].clone(), r[2].clone(), self.perm)
    }

    /// Like [`RedistPlan::pack`] but drawing the message buffer from a
    /// recycling pool: the steady-state pipeline's allocation-free pack
    /// path. Byte-identical to [`RedistPlan::pack`].
    pub fn pack_with<T: Copy + Default>(
        &self,
        block: &RedistBlock,
        local: &Cube<T>,
        pool: &crate::pool::SharedBufferPool<T>,
    ) -> Cube<T> {
        let own = self.src_part.range_of(block.src);
        let mut r = block.src_ranges.clone();
        r[self.src_part.axis] =
            (r[self.src_part.axis].start - own.start)..(r[self.src_part.axis].end - own.start);
        local.extract_permuted_into(
            r[0].clone(),
            r[1].clone(),
            r[2].clone(),
            self.perm,
            pool.get(block.elements),
        )
    }

    /// Unpacks a received message into the receiver's local cube.
    pub fn unpack<T: Copy + Default>(
        &self,
        block: &RedistBlock,
        message: &Cube<T>,
        local: &mut Cube<T>,
    ) {
        local.place(block.dst_offset, message);
    }

    /// Unpacks a received message and retires its buffer to `pool` —
    /// what a receiving node does with every consumed message so the
    /// pool stays balanced.
    pub fn unpack_recycling<T: Copy + Default>(
        &self,
        block: &RedistBlock,
        message: Cube<T>,
        local: &mut Cube<T>,
        pool: &crate::pool::SharedBufferPool<T>,
    ) {
        local.place(block.dst_offset, &message);
        pool.recycle(message);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Cube;

    /// Runs a full redistribution "by hand" over in-memory nodes and
    /// checks the receivers jointly reassemble the permuted cube.
    fn roundtrip(
        shape: [usize; 3],
        src_part: AxisPartition,
        dst_part: AxisPartition,
        perm: [usize; 3],
    ) {
        let global = Cube::from_fn(shape, |i, j, k| (i * 10_000 + j * 100 + k) as f64);
        let plan = RedistPlan::new(shape, src_part.clone(), dst_part.clone(), perm);

        // Scatter: each source node owns its slab.
        let locals: Vec<Cube<f64>> = (0..src_part.nodes())
            .map(|p| {
                let mut r = [0..shape[0], 0..shape[1], 0..shape[2]];
                r[src_part.axis] = src_part.range_of(p);
                global.extract(r[0].clone(), r[1].clone(), r[2].clone())
            })
            .collect();

        // Exchange.
        let mut dst_cubes: Vec<Cube<f64>> = (0..dst_part.nodes())
            .map(|p| Cube::zeros(plan.dst_local_shape(p)))
            .collect();
        for block in &plan.blocks {
            let msg = plan.pack(block, &locals[block.src]);
            plan.unpack(block, &msg, &mut dst_cubes[block.dst]);
        }

        // Verify against the directly permuted global cube.
        let want = global.permute(perm);
        for (p, got) in dst_cubes.iter().enumerate() {
            let own = dst_part.range_of(p);
            let mut r = [0..want.shape()[0], 0..want.shape()[1], 0..want.shape()[2]];
            r[dst_part.axis] = own;
            let expected = want.extract(r[0].clone(), r[1].clone(), r[2].clone());
            assert_eq!(*got, expected, "receiver {p} mismatch");
        }
    }

    #[test]
    fn k_to_n_with_reorganization_like_doppler_to_beamforming() {
        // (K, 2J, N) partitioned on K=axis0 over 4 nodes, redistributed to
        // (N, K, 2J) partitioned on N=axis0 over 3 nodes. perm maps
        // out axes (N,K,2J) = src axes (2,0,1).
        roundtrip(
            [16, 8, 12],
            AxisPartition::block(0, 16, 4),
            AxisPartition::block(0, 12, 3),
            [2, 0, 1],
        );
    }

    #[test]
    fn same_axis_same_layout_is_block_exchange() {
        // Beamforming -> pulse compression: both partition N, no permute.
        roundtrip(
            [12, 6, 10],
            AxisPartition::block(0, 12, 4),
            AxisPartition::block(0, 12, 2),
            [0, 1, 2],
        );
    }

    #[test]
    fn identical_partitions_are_pure_local_copies() {
        let plan = RedistPlan::new(
            [12, 6, 10],
            AxisPartition::block(0, 12, 4),
            AxisPartition::block(0, 12, 4),
            [0, 1, 2],
        );
        // Every block must be a self-send.
        assert!(plan.blocks.iter().all(|b| b.src == b.dst));
        assert_eq!(plan.blocks.len(), 4);
    }

    #[test]
    fn uneven_node_counts() {
        roundtrip(
            [13, 5, 9],
            AxisPartition::block(1, 5, 3),
            AxisPartition::block(2, 5, 2),
            [2, 0, 1],
        );
    }

    #[test]
    fn single_node_to_many() {
        roundtrip(
            [8, 4, 6],
            AxisPartition::block(0, 8, 1),
            AxisPartition::block(0, 6, 5),
            [2, 1, 0],
        );
    }

    #[test]
    fn many_to_single_node() {
        roundtrip(
            [8, 4, 6],
            AxisPartition::block(2, 6, 6),
            AxisPartition::block(1, 4, 1),
            [0, 1, 2],
        );
    }

    #[test]
    fn element_accounting_is_conservative() {
        let plan = RedistPlan::new(
            [16, 8, 12],
            AxisPartition::block(0, 16, 4),
            AxisPartition::block(0, 12, 3),
            [2, 0, 1],
        );
        let total: usize = plan.blocks.iter().map(|b| b.elements).sum();
        assert_eq!(total, 16 * 8 * 12);
        let sends: usize = (0..4).map(|p| plan.send_elements(p)).sum();
        let recvs: usize = (0..3).map(|p| plan.recv_elements(p)).sum();
        assert_eq!(sends, total);
        assert_eq!(recvs, total);
    }

    #[test]
    fn all_to_all_pairs_present_when_axes_differ() {
        let plan = RedistPlan::new(
            [16, 8, 12],
            AxisPartition::block(0, 16, 4),
            AxisPartition::block(0, 12, 3),
            [2, 0, 1],
        );
        // Every sender talks to every receiver: 4 * 3 blocks.
        assert_eq!(plan.blocks.len(), 12);
    }
}
