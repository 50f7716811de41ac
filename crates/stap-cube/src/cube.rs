//! Dense 3-D arrays in row-major order (last axis has unit stride).

use stap_math::Cx;
use std::ops::{Index, IndexMut, Range};

/// A dense 3-D array. `shape = [d0, d1, d2]` with `d2` contiguous.
#[derive(Clone, PartialEq, Debug)]
pub struct Cube<T> {
    shape: [usize; 3],
    data: Vec<T>,
}

/// Complex cube — the working type through beamforming.
pub type CCube = Cube<Cx>;
/// Real cube — pulse-compressed power and CFAR input.
pub type RCube = Cube<f64>;

impl<T: Copy + Default> Cube<T> {
    /// A cube of `Default` values with the given shape.
    pub fn zeros(shape: [usize; 3]) -> Self {
        Cube {
            shape,
            data: vec![T::default(); shape[0] * shape[1] * shape[2]],
        }
    }

    /// Builds a cube by evaluating `f(i, j, k)` in storage order.
    pub fn from_fn(shape: [usize; 3], f: impl FnMut(usize, usize, usize) -> T) -> Self {
        Cube::from_fn_in(shape, Vec::new(), f)
    }

    /// Like [`Cube::from_fn`] but building into a caller-provided buffer
    /// (typically recycled from a [`crate::BufferPool`]), so the
    /// steady-state packing path allocates nothing. The buffer's prior
    /// contents are discarded; element order is identical to
    /// [`Cube::from_fn`].
    pub fn from_fn_in(
        shape: [usize; 3],
        mut data: Vec<T>,
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> Self {
        data.clear();
        data.reserve(shape[0] * shape[1] * shape[2]);
        for i in 0..shape[0] {
            for j in 0..shape[1] {
                for k in 0..shape[2] {
                    data.push(f(i, j, k));
                }
            }
        }
        Cube { shape, data }
    }

    /// Wraps an existing buffer. Panics when the length mismatches.
    pub fn from_vec(shape: [usize; 3], data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            shape[0] * shape[1] * shape[2],
            "buffer length does not match shape {shape:?}"
        );
        Cube { shape, data }
    }

    /// The shape `[d0, d1, d2]`.
    #[inline]
    pub fn shape(&self) -> [usize; 3] {
        self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the cube holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The backing buffer in storage order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The backing buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the cube, returning the backing buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    #[inline(always)]
    fn offset(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.shape[0] && j < self.shape[1] && k < self.shape[2]);
        (i * self.shape[1] + j) * self.shape[2] + k
    }

    /// The contiguous lane `self[i, j, ..]`.
    #[inline]
    pub fn lane(&self, i: usize, j: usize) -> &[T] {
        let o = self.offset(i, j, 0);
        &self.data[o..o + self.shape[2]]
    }

    /// The contiguous lane `self[i, j, ..]`, mutably.
    #[inline]
    pub fn lane_mut(&mut self, i: usize, j: usize) -> &mut [T] {
        let o = self.offset(i, j, 0);
        let d2 = self.shape[2];
        &mut self.data[o..o + d2]
    }

    /// Copies the sub-block `r0 x r1 x r2` into a new cube.
    pub fn extract(&self, r0: Range<usize>, r1: Range<usize>, r2: Range<usize>) -> Cube<T> {
        assert!(
            r0.end <= self.shape[0] && r1.end <= self.shape[1] && r2.end <= self.shape[2],
            "extract range out of bounds"
        );
        let shape = [r0.len(), r1.len(), r2.len()];
        let mut data = Vec::with_capacity(shape[0] * shape[1] * shape[2]);
        for i in r0 {
            for j in r1.clone() {
                let o = self.offset(i, j, r2.start);
                data.extend_from_slice(&self.data[o..o + r2.len()]);
            }
        }
        Cube { shape, data }
    }

    /// Writes `sub` into this cube at `offset` (element-wise copy).
    pub fn place(&mut self, offset: [usize; 3], sub: &Cube<T>) {
        let s = sub.shape;
        assert!(
            offset[0] + s[0] <= self.shape[0]
                && offset[1] + s[1] <= self.shape[1]
                && offset[2] + s[2] <= self.shape[2],
            "place out of bounds: offset {offset:?} + {s:?} > {:?}",
            self.shape
        );
        for i in 0..s[0] {
            for j in 0..s[1] {
                let src = sub.lane(i, j);
                let dsto = self.offset(offset[0] + i, offset[1] + j, offset[2]);
                self.data[dsto..dsto + s[2]].copy_from_slice(src);
            }
        }
    }

    /// A full copy with axes permuted: output axis `i` is input axis
    /// `perm[i]`, i.e. `out[y0, y1, y2] = self[x0, x1, x2]` where
    /// `y_i = x_{perm[i]}`.
    pub fn permute(&self, perm: [usize; 3]) -> Cube<T> {
        self.extract_permuted(0..self.shape[0], 0..self.shape[1], 0..self.shape[2], perm)
    }

    /// Extracts a sub-block *and* permutes it in one pass — the "data
    /// reorganization" copy of Fig. 8. Ranges are in *source* coordinates;
    /// the output shape is the permuted block shape.
    ///
    /// On the Paragon this strided copy is where the cache-miss cost the
    /// paper discusses is paid, and the machine model charges for it per
    /// element. Here the copy is run-fused or transpose-blocked (see
    /// [`Cube::extract_permuted_into`]); it serves [`crate::RedistPlan`],
    /// which reorganizes a cube that already exists. The serve path's
    /// Doppler task never builds that cube: it corner-turns each
    /// cache-resident FFT tile straight into the wire blocks through
    /// [`crate::BinBlock`].
    pub fn extract_permuted(
        &self,
        r0: Range<usize>,
        r1: Range<usize>,
        r2: Range<usize>,
        perm: [usize; 3],
    ) -> Cube<T> {
        self.extract_permuted_into(r0, r1, r2, perm, Vec::new())
    }

    /// Like [`Cube::extract_permuted`] but copying into a caller-provided
    /// buffer (typically recycled from a [`crate::BufferPool`]), so the
    /// steady-state redistribution pack path allocates nothing.
    /// Byte-identical to [`Cube::extract_permuted`].
    ///
    /// **Run fusion rule**: writing `st[i]` for the source stride of
    /// output axis `i`, the gather is a sequence of `copy_from_slice`
    /// runs whenever `st[2] == 1` (the output's inner axis is the
    /// source's inner axis). The run starts at length `out_shape[2]` and
    /// folds outer axes in while their stride equals the current run
    /// length, so an identity permutation degenerates to one `memcpy`.
    /// When `st[2] != 1` the runs would all be length 1; instead a
    /// transpose-blocked fallback tiles the unit-source-stride output
    /// axis against the inner output axis so each 16x16 tile reuses the
    /// source cache lines it pulls.
    pub fn extract_permuted_into(
        &self,
        r0: Range<usize>,
        r1: Range<usize>,
        r2: Range<usize>,
        perm: [usize; 3],
        mut data: Vec<T>,
    ) -> Cube<T> {
        assert!(is_permutation(perm), "invalid permutation {perm:?}");
        assert!(
            r0.end <= self.shape[0] && r1.end <= self.shape[1] && r2.end <= self.shape[2],
            "extract range out of bounds"
        );
        let src_ranges = [r0, r1, r2];
        let out_shape = [
            src_ranges[perm[0]].len(),
            src_ranges[perm[1]].len(),
            src_ranges[perm[2]].len(),
        ];
        let total = out_shape[0] * out_shape[1] * out_shape[2];
        data.clear();
        data.reserve(total);
        let base = [
            src_ranges[0].start,
            src_ranges[1].start,
            src_ranges[2].start,
        ];
        // Source strides per *output* axis plus the block's base offset:
        // src_index = base_off + y0*st[0] + y1*st[1] + y2*st[2].
        let sstr = [self.shape[1] * self.shape[2], self.shape[2], 1];
        let st = [sstr[perm[0]], sstr[perm[1]], sstr[perm[2]]];
        let base_off = base[0] * sstr[0] + base[1] * sstr[1] + base[2] * sstr[2];

        if total == 0 {
            return Cube {
                shape: out_shape,
                data,
            };
        }

        if st[2] == 1 {
            // Maximal-run fusion over the contiguous inner axis.
            let mut run = out_shape[2];
            if st[1] == run {
                run *= out_shape[1];
                if st[0] == run {
                    // Fully contiguous: one memcpy.
                    run *= out_shape[0];
                    data.extend_from_slice(&self.data[base_off..base_off + run]);
                } else {
                    for y0 in 0..out_shape[0] {
                        let o = base_off + y0 * st[0];
                        data.extend_from_slice(&self.data[o..o + run]);
                    }
                }
            } else {
                for y0 in 0..out_shape[0] {
                    let o0 = base_off + y0 * st[0];
                    for y1 in 0..out_shape[1] {
                        let o = o0 + y1 * st[1];
                        data.extend_from_slice(&self.data[o..o + run]);
                    }
                }
            }
        } else {
            // Length-1 runs: transpose-blocked gather. One output axis
            // `a` walks the source with unit stride (perm[a] == 2);
            // tile it against the inner output axis. For 16-byte
            // payloads (`Cx`, the redistribution wire type) the inner
            // strided row runs through the dispatched SIMD gather —
            // pure data movement, byte-identical to the scalar copy.
            const B: usize = 16;
            let a = if perm[0] == 2 { 0 } else { 1 };
            let b = 1 - a;
            let ost = [out_shape[1] * out_shape[2], out_shape[2], 1];
            data.resize(total, T::default());
            let simd_16b = std::mem::size_of::<T>() == 16;
            for yb in 0..out_shape[b] {
                let sb = base_off + yb * st[b];
                let ob = yb * ost[b];
                let mut ya0 = 0;
                while ya0 < out_shape[a] {
                    let ya1 = (ya0 + B).min(out_shape[a]);
                    let mut y20 = 0;
                    while y20 < out_shape[2] {
                        let y21 = (y20 + B).min(out_shape[2]);
                        for ya in ya0..ya1 {
                            let srow = sb + ya; // st[a] == 1
                            let orow = ob + ya * ost[a];
                            if simd_16b {
                                // Bounds of the strided row (also
                                // checked by the asserts below): last
                                // read is srow + (y21-1)*st[2], last
                                // write orow + y21 - 1.
                                assert!(srow + (y21 - 1) * st[2] < self.data.len());
                                assert!(orow + y21 <= data.len());
                                // SAFETY: `T` is `Copy` with size 16;
                                // ranges asserted in bounds; source
                                // and destination buffers are distinct.
                                unsafe {
                                    stap_math::simd::gather_16b_strided(
                                        data.as_mut_ptr().add(orow + y20) as *mut u8,
                                        self.data.as_ptr().add(srow + y20 * st[2]) as *const u8,
                                        y21 - y20,
                                        st[2],
                                    );
                                }
                            } else {
                                for y2 in y20..y21 {
                                    data[orow + y2] = self.data[srow + y2 * st[2]];
                                }
                            }
                        }
                        y20 = y21;
                    }
                    ya0 = ya1;
                }
            }
        }
        Cube {
            shape: out_shape,
            data,
        }
    }

    /// Element-wise map into a cube of another type.
    pub fn map<U: Copy + Default>(&self, f: impl Fn(T) -> U) -> Cube<U> {
        Cube {
            shape: self.shape,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }
}

/// True when `perm` is a permutation of `{0, 1, 2}`.
fn is_permutation(perm: [usize; 3]) -> bool {
    let mut seen = [false; 3];
    for p in perm {
        if p > 2 || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

impl CCube {
    /// Largest absolute element difference against `rhs` (test helper).
    pub fn max_abs_diff(&self, rhs: &CCube) -> f64 {
        assert_eq!(self.shape, rhs.shape, "shape mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// True when every element is finite (no NaN/Inf in either part).
    /// Task boundaries in the fault-tolerant pipeline screen payloads
    /// with this before admitting them into double-buffered state.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl RCube {
    /// True when every element is finite (no NaN/Inf).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl<T: Copy + Default> Index<(usize, usize, usize)> for Cube<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i, j, k): (usize, usize, usize)) -> &T {
        &self.data[self.offset(i, j, k)]
    }
}

impl<T: Copy + Default> IndexMut<(usize, usize, usize)> for Cube<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j, k): (usize, usize, usize)) -> &mut T {
        let o = self.offset(i, j, k);
        &mut self.data[o]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numbered(shape: [usize; 3]) -> Cube<f64> {
        let mut c = 0.0;
        Cube::from_fn(shape, |_, _, _| {
            c += 1.0;
            c
        })
    }

    #[test]
    fn storage_order_is_row_major() {
        let c = numbered([2, 3, 4]);
        assert_eq!(c[(0, 0, 0)], 1.0);
        assert_eq!(c[(0, 0, 3)], 4.0);
        assert_eq!(c[(0, 1, 0)], 5.0);
        assert_eq!(c[(1, 0, 0)], 13.0);
        assert_eq!(c.lane(1, 2), &[21.0, 22.0, 23.0, 24.0]);
    }

    #[test]
    fn extract_matches_indexing() {
        let c = numbered([4, 5, 6]);
        let e = c.extract(1..3, 2..5, 0..4);
        assert_eq!(e.shape(), [2, 3, 4]);
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    assert_eq!(e[(i, j, k)], c[(i + 1, j + 2, k)]);
                }
            }
        }
    }

    #[test]
    fn place_reverses_extract() {
        let c = numbered([4, 5, 6]);
        let e = c.extract(1..3, 2..5, 1..5);
        let mut d = Cube::zeros([4, 5, 6]);
        d.place([1, 2, 1], &e);
        for i in 1..3 {
            for j in 2..5 {
                for k in 1..5 {
                    assert_eq!(d[(i, j, k)], c[(i, j, k)]);
                }
            }
        }
        assert_eq!(d[(0, 0, 0)], 0.0);
    }

    #[test]
    fn permute_identity() {
        let c = numbered([3, 4, 5]);
        assert_eq!(c.permute([0, 1, 2]), c);
    }

    #[test]
    fn permute_moves_elements_correctly() {
        let c = numbered([2, 3, 4]);
        // out[y0,y1,y2] = c[x0,x1,x2] with y_i = x_perm[i]; so for
        // perm = [2,0,1]: out[k,i,j] = c[i,j,k].
        let p = c.permute([2, 0, 1]);
        assert_eq!(p.shape(), [4, 2, 3]);
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    assert_eq!(p[(k, i, j)], c[(i, j, k)]);
                }
            }
        }
    }

    #[test]
    fn permute_twice_with_inverse_is_identity() {
        let c = numbered([3, 4, 2]);
        let perm = [1, 2, 0];
        // inverse of perm: inv[perm[i]] = i -> inv = [2, 0, 1]
        let inv = [2, 0, 1];
        assert_eq!(c.permute(perm).permute(inv), c);
    }

    #[test]
    fn extract_permuted_equals_extract_then_permute() {
        let c = numbered([5, 6, 7]);
        let perm = [2, 0, 1];
        let a = c.extract_permuted(1..4, 2..6, 3..7, perm);
        let b = c.extract(1..4, 2..6, 3..7).permute(perm);
        assert_eq!(a, b);
    }

    #[test]
    fn all_six_permutations_match_reference_gather() {
        // Exercises both the run-fused path (perm[2] == 2) and the
        // transpose-blocked fallback (perm[2] != 2), including tiles
        // larger than the 16-element block.
        let c = numbered([5, 19, 37]);
        for perm in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let got = c.extract_permuted(1..4, 2..19, 3..36, perm);
            let ranges = [1..4usize, 2..19, 3..36];
            assert_eq!(
                got.shape(),
                [
                    ranges[perm[0]].len(),
                    ranges[perm[1]].len(),
                    ranges[perm[2]].len()
                ],
                "{perm:?}"
            );
            for y0 in 0..got.shape()[0] {
                for y1 in 0..got.shape()[1] {
                    for y2 in 0..got.shape()[2] {
                        let mut x = [0usize; 3];
                        x[perm[0]] = ranges[perm[0]].start + y0;
                        x[perm[1]] = ranges[perm[1]].start + y1;
                        x[perm[2]] = ranges[perm[2]].start + y2;
                        assert_eq!(
                            got[(y0, y1, y2)],
                            c[(x[0], x[1], x[2])],
                            "{perm:?} at ({y0},{y1},{y2})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn map_converts_types() {
        let c = numbered([2, 2, 2]);
        let m = c.map(|x| x as i64);
        assert_eq!(m[(1, 1, 1)], 8);
    }

    #[test]
    #[should_panic(expected = "invalid permutation")]
    fn bad_permutation_panics() {
        numbered([2, 2, 2]).permute([0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn extract_out_of_bounds_panics() {
        numbered([2, 2, 2]).extract(0..3, 0..1, 0..1);
    }
}
