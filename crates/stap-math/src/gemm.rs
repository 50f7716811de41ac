//! Split-complex (SoA) GEMM micro-kernel engine.
//!
//! The beamforming and weight-computation tasks — the paper's largest
//! node assignments (Tables 7–10) — are matrix-matrix products over
//! interleaved complex (`Cx`) storage. Interleaved layout defeats
//! autovectorization: every complex multiply-accumulate needs shuffles
//! to separate real and imaginary lanes. This module stores the two
//! components in separate planes ([`PlanarMat`]) so one complex MAC
//! lowers to **four straight-line f64 FMA streams**
//!
//! ```text
//!   c_re += a_re*b_re - a_im*b_im
//!   c_im += a_re*b_im + a_im*b_re
//! ```
//!
//! that the compiler vectorizes across output columns without any
//! reassociation — the accumulation order over the inner dimension `k`
//! is *identical* to the interleaved i-k-j kernel, so the engine is
//! **bit-for-bit** equal to [`matmul_interleaved_into`] (property-tested
//! in `tests/proptests.rs`; the golden detection outputs are unchanged).
//!
//! Layout of the engine:
//!
//! * [`PlanarMat`] — grow-only split-complex pack buffer. Operand `A`
//!   is packed row-major `m x k` (already transposed/conjugated for the
//!   `A^H B` case, so the micro-kernel reads it with unit stride);
//!   operand `B` is packed row-major `k x n` (unit-stride `NR`-wide
//!   column strips).
//! * [`gemm_planar_into`] — the packed, register-tiled kernel
//!   (`MR = 2` rows x `NR = 8` columns of f64 accumulators per tile).
//! * [`GemmScratch`] / a thread-local instance — persistent pack
//!   buffers so the steady-state CPI path performs **zero** heap
//!   allocations after warmup (policed by the counting-allocator
//!   regression test in `stap-bench`).
//!
//! [`crate::CMat::matmul_into`] and
//! [`crate::CMat::hermitian_matmul_into`] dispatch here above
//! [`GEMM_CUTOFF`]; below it the pack overhead is not worth paying and
//! the frozen interleaved kernels run instead.

use crate::complex::{Cx, ZERO};
use crate::flops;
use crate::mat::CMat;
#[cfg(target_arch = "x86_64")]
use crate::simd;
use std::cell::RefCell;

/// Dispatch threshold in complex multiply-accumulates (`m * k * n`):
/// products at least this large route through the planar engine, smaller
/// ones run the interleaved kernels (pack cost would dominate).
pub const GEMM_CUTOFF: usize = 4096;

/// Column tile width of the micro-kernel (f64 accumulator lanes).
const NR: usize = 8;

/// A split-complex ("planar") matrix: separate row-major `re` and `im`
/// planes. Used as a pack buffer for the GEMM engine and as the gather
/// target for the beamforming slabs; buffers grow once and are reused,
/// so steady-state repacking allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct PlanarMat {
    rows: usize,
    cols: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl PlanarMat {
    /// An empty pack buffer (no storage until first use).
    pub fn new() -> Self {
        PlanarMat::default()
    }

    /// A zero-filled `rows x cols` planar matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        PlanarMat {
            rows,
            cols,
            re: vec![0.0; rows * cols],
            im: vec![0.0; rows * cols],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Sets the logical shape, growing (never shrinking) the backing
    /// planes. After the first call at a given size this is
    /// allocation-free.
    pub fn ensure_shape(&mut self, rows: usize, cols: usize) {
        let n = rows * cols;
        if self.re.len() < n {
            self.re.resize(n, 0.0);
            self.im.resize(n, 0.0);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Element `(i, j)` as a `Cx` (test/diagnostic accessor; the hot
    /// paths read the planes directly).
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> Cx {
        debug_assert!(i < self.rows && j < self.cols);
        Cx::new(self.re[i * self.cols + j], self.im[i * self.cols + j])
    }

    /// Packs an interleaved matrix into the planes (same row-major
    /// element order).
    pub fn pack_from(&mut self, a: &CMat) {
        self.ensure_shape(a.rows(), a.cols());
        for (idx, v) in a.as_slice().iter().enumerate() {
            self.re[idx] = v.re;
            self.im[idx] = v.im;
        }
    }

    /// Packs the conjugate transpose `A^H` of an interleaved matrix:
    /// `self[i][k] = conj(a[k][i])`. This is the `A`-operand pack for
    /// the `C = A^H B` beamforming products — after it, the micro-kernel
    /// streams both operands with unit stride.
    pub fn pack_hermitian_from(&mut self, a: &CMat) {
        let (ar, ac) = a.shape();
        self.ensure_shape(ac, ar);
        for i in 0..ac {
            let (re_row, im_row) = (
                &mut self.re[i * ar..(i + 1) * ar],
                &mut self.im[i * ar..(i + 1) * ar],
            );
            for k in 0..ar {
                let v = a[(k, i)];
                re_row[k] = v.re;
                im_row[k] = -v.im;
            }
        }
    }

    /// Transposing pack of a column band: `src` is `[column][row]`
    /// row-major — `src.len() / rows` runs of `rows` elements, each the
    /// contents of one column — and lands in columns `col0..` of the
    /// current shape, i.e. `self[(r, col0 + c)] = src[c * rows + r]`.
    /// The beamformers' `[range][channel] -> [channel][range]` operand
    /// pack straight from a wire block: four source runs at a time
    /// complete one destination cache line per plane row, so no line is
    /// visited twice.
    pub fn pack_cols_transposed(&mut self, col0: usize, src: &[Cx]) {
        let (rows, cols) = (self.rows, self.cols);
        if rows == 0 {
            assert!(src.is_empty(), "pack_cols_transposed into an empty matrix");
            return;
        }
        assert_eq!(src.len() % rows, 0, "pack_cols_transposed ragged source");
        assert!(
            col0 + src.len() / rows <= cols,
            "pack_cols_transposed out of bounds"
        );
        let mut c = col0;
        let mut quads = src.chunks_exact(4 * rows);
        for quad in &mut quads {
            for r in 0..rows {
                let at = r * cols + c;
                let (re, im) = (&mut self.re[at..at + 4], &mut self.im[at..at + 4]);
                for i in 0..4 {
                    let v = quad[i * rows + r];
                    (re[i], im[i]) = (v.re, v.im);
                }
            }
            c += 4;
        }
        for run in quads.remainder().chunks_exact(rows) {
            for (r, &v) in run.iter().enumerate() {
                self.re[r * cols + c] = v.re;
                self.im[r * cols + c] = v.im;
            }
            c += 1;
        }
    }

    /// Overwrites the planes with `f(row, col)` — the planar analogue of
    /// [`CMat::fill_from_fn`], used to gather beamforming slabs straight
    /// into packed form (skipping the interleaved intermediate).
    pub fn fill_from_fn(
        &mut self,
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> Cx,
    ) {
        self.ensure_shape(rows, cols);
        for i in 0..rows {
            let base = i * cols;
            for j in 0..cols {
                let v = f(i, j);
                self.re[base + j] = v.re;
                self.im[base + j] = v.im;
            }
        }
    }
}

/// Persistent pack buffers for the engine: one `A` pack and one `B`
/// pack. Hold one per task (or use the thread-local instance behind
/// [`CMat::matmul_into`]) and steady state never allocates.
#[derive(Default)]
pub struct GemmScratch {
    /// `A` (or `A^H`) pack, `m x k` row-major planar.
    pub a: PlanarMat,
    /// `B` pack, `k x n` row-major planar.
    pub b: PlanarMat,
}

impl GemmScratch {
    /// Empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        GemmScratch::default()
    }
}

thread_local! {
    /// Per-thread engine scratch backing the `CMat` dispatch methods.
    static TLS_SCRATCH: RefCell<GemmScratch> = RefCell::new(GemmScratch::new());
}

/// Runs `f` with the thread-local engine scratch.
pub fn with_scratch<R>(f: impl FnOnce(&mut GemmScratch) -> R) -> R {
    TLS_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// `out = A B` with `A` pre-packed as `m x k` planar and `B` as
/// `k x n` planar. Every output element is overwritten. The per-element
/// accumulation order over `k` is ascending, matching the interleaved
/// i-k-j kernel bit for bit.
///
/// Counts `8 m k n` flops (complex multiply-accumulate convention).
pub fn gemm_planar_into(a: &PlanarMat, b: &PlanarMat, out: &mut CMat) {
    assert_eq!(out.shape(), (a.rows(), b.cols()), "output shape mismatch");
    gemm_planar_into_strided(a, b, out.as_mut_slice(), b.cols());
}

/// [`gemm_planar_into`] storing into a window of a larger row-major
/// array: element `(i, j)` of the product lands in `out[i * ld + j]`, so
/// a beamformer's `M x len` result goes straight into columns
/// `c0..c0 + len` of a wire block's `[M][K]` plane (`out` starting at
/// column `c0`, `ld = K`). Elements of `out` outside the window are not
/// touched; the arithmetic per output is that of the compact form.
pub fn gemm_planar_into_strided(a: &PlanarMat, b: &PlanarMat, out: &mut [Cx], ld: usize) {
    let (m, kk) = a.shape();
    assert_eq!(
        b.rows(),
        kk,
        "gemm inner dimensions {m}x{kk} * {}x{}",
        b.rows(),
        b.cols()
    );
    let n = b.cols();
    assert!(ld >= n, "leading dimension {ld} below the row length {n}");
    assert!(
        m == 0 || out.len() >= (m - 1) * ld + n,
        "output window out of bounds"
    );
    let ar = &a.re[..m * kk];
    let ai = &a.im[..m * kk];
    let br = &b.re[..kk * n];
    let bi = &b.im[..kk * n];
    let od = out;
    // Resolve the SIMD backend once per product; the AVX2 micro-kernel
    // performs the identical update order (bit-for-bit, see
    // `simd::avx2::micro_2x8`). On builds already targeting AVX2 the
    // scalar micro-kernel auto-vectorizes and the intrinsic path is
    // skipped — see `simd::avx2_gemm_dispatch`.
    #[cfg(target_arch = "x86_64")]
    let use_avx2 = simd::avx2_gemm_dispatch();
    #[cfg(not(target_arch = "x86_64"))]
    let use_avx2 = false;

    let mut i = 0;
    // MR = 2: two output rows share every B load.
    while i + 2 <= m {
        let a0r = &ar[i * kk..(i + 1) * kk];
        let a0i = &ai[i * kk..(i + 1) * kk];
        let a1r = &ar[(i + 1) * kk..(i + 2) * kk];
        let a1i = &ai[(i + 1) * kk..(i + 2) * kk];
        let mut j = 0;
        while j + NR <= n {
            #[cfg(target_arch = "x86_64")]
            if use_avx2 {
                // SAFETY: AVX2 availability established above; slice
                // bounds mirror the scalar call (j + 8 <= n, rows i and
                // i + 1 of `od`).
                unsafe {
                    simd::avx2::micro_2x8(
                        kk,
                        n,
                        j,
                        a0r,
                        a0i,
                        a1r,
                        a1i,
                        br,
                        bi,
                        &mut od[i * ld..],
                        ld,
                    );
                }
                j += NR;
                continue;
            }
            micro_2xnr(kk, n, j, a0r, a0i, a1r, a1i, br, bi, &mut od[i * ld..], ld);
            j += NR;
        }
        while j < n {
            let (c0, c1) = dot2(kk, n, j, a0r, a0i, a1r, a1i, br, bi);
            od[i * ld + j] = c0;
            od[(i + 1) * ld + j] = c1;
            j += 1;
        }
        i += 2;
    }
    if i < m {
        let a0r = &ar[i * kk..(i + 1) * kk];
        let a0i = &ai[i * kk..(i + 1) * kk];
        let mut j = 0;
        while j + NR <= n {
            #[cfg(target_arch = "x86_64")]
            if use_avx2 {
                // SAFETY: AVX2 availability established above; same
                // bounds as the scalar panel below.
                unsafe {
                    simd::avx2::micro_1x8(kk, n, j, a0r, a0i, br, bi, &mut od[i * ld..]);
                }
                j += NR;
                continue;
            }
            let mut cr = [0.0f64; NR];
            let mut ci = [0.0f64; NR];
            for k in 0..kk {
                let o = k * n + j;
                let brow: &[f64; NR] = br[o..o + NR].try_into().unwrap();
                let birow: &[f64; NR] = bi[o..o + NR].try_into().unwrap();
                let (x0r, x0i) = (a0r[k], a0i[k]);
                for t in 0..NR {
                    cr[t] = cr[t] + x0r * brow[t] - x0i * birow[t];
                    ci[t] = ci[t] + x0r * birow[t] + x0i * brow[t];
                }
            }
            for t in 0..NR {
                od[i * ld + j + t] = Cx::new(cr[t], ci[t]);
            }
            j += NR;
        }
        while j < n {
            let mut c = ZERO;
            for k in 0..kk {
                let o = k * n + j;
                c = Cx::new(
                    c.re + a0r[k] * br[o] - a0i[k] * bi[o],
                    c.im + a0r[k] * bi[o] + a0i[k] * br[o],
                );
            }
            od[i * ld + j] = c;
            j += 1;
        }
    }
    flops::add(flops::CMAC * (m * kk * n) as u64);
}

/// The 2 x NR register tile: 4 f64 accumulator arrays (2 rows x 2
/// planes), one pass over `k`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro_2xnr(
    kk: usize,
    n: usize,
    j: usize,
    a0r: &[f64],
    a0i: &[f64],
    a1r: &[f64],
    a1i: &[f64],
    br: &[f64],
    bi: &[f64],
    out_rows: &mut [Cx],
    ld: usize,
) {
    let mut c0r = [0.0f64; NR];
    let mut c0i = [0.0f64; NR];
    let mut c1r = [0.0f64; NR];
    let mut c1i = [0.0f64; NR];
    for k in 0..kk {
        let o = k * n + j;
        let brow: &[f64; NR] = br[o..o + NR].try_into().unwrap();
        let birow: &[f64; NR] = bi[o..o + NR].try_into().unwrap();
        let (x0r, x0i) = (a0r[k], a0i[k]);
        let (x1r, x1i) = (a1r[k], a1i[k]);
        for t in 0..NR {
            c0r[t] = c0r[t] + x0r * brow[t] - x0i * birow[t];
            c0i[t] = c0i[t] + x0r * birow[t] + x0i * brow[t];
            c1r[t] = c1r[t] + x1r * brow[t] - x1i * birow[t];
            c1i[t] = c1i[t] + x1r * birow[t] + x1i * brow[t];
        }
    }
    for t in 0..NR {
        out_rows[j + t] = Cx::new(c0r[t], c0i[t]);
        out_rows[ld + j + t] = Cx::new(c1r[t], c1i[t]);
    }
}

/// Scalar column-remainder path for the 2-row panel.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn dot2(
    kk: usize,
    n: usize,
    j: usize,
    a0r: &[f64],
    a0i: &[f64],
    a1r: &[f64],
    a1i: &[f64],
    br: &[f64],
    bi: &[f64],
) -> (Cx, Cx) {
    let mut c0 = ZERO;
    let mut c1 = ZERO;
    for k in 0..kk {
        let o = k * n + j;
        let (bre, bim) = (br[o], bi[o]);
        c0 = Cx::new(
            c0.re + a0r[k] * bre - a0i[k] * bim,
            c0.im + a0r[k] * bim + a0i[k] * bre,
        );
        c1 = Cx::new(
            c1.re + a1r[k] * bre - a1i[k] * bim,
            c1.im + a1r[k] * bim + a1i[k] * bre,
        );
    }
    (c0, c1)
}

/// `out = a * b` through the planar engine with caller-provided pack
/// scratch (zero-alloc once the scratch is warm).
pub fn matmul_planar_into(a: &CMat, b: &CMat, out: &mut CMat, ws: &mut GemmScratch) {
    ws.a.pack_from(a);
    ws.b.pack_from(b);
    gemm_planar_into(&ws.a, &ws.b, out);
}

/// `out = a^H * b` through the planar engine with caller-provided pack
/// scratch.
pub fn hermitian_matmul_planar_into(a: &CMat, b: &CMat, out: &mut CMat, ws: &mut GemmScratch) {
    ws.a.pack_hermitian_from(a);
    ws.b.pack_from(b);
    gemm_planar_into(&ws.a, &ws.b, out);
}

/// The frozen interleaved `out = a * b` kernel (the seed tree's i-k-j
/// loop). Kept verbatim as the small-size path, the bit-for-bit
/// reference for the engine, and the "before" side of the kernel
/// benchmarks. Counts `8 m k n` flops.
pub fn matmul_interleaved_into(a: &CMat, b: &CMat, out: &mut CMat) {
    let (m, kk) = a.shape();
    let n = b.cols();
    debug_assert_eq!(b.rows(), kk);
    debug_assert_eq!(out.shape(), (m, n));
    out.as_mut_slice().fill(ZERO);
    for i in 0..m {
        let arow = a.row(i);
        for (k, &av) in arow.iter().enumerate() {
            let brow = b.row(k);
            let orow = out.row_mut(i);
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o = o.mul_add(av, bv);
            }
        }
    }
    flops::add(flops::CMAC * (m * kk * n) as u64);
}

/// The frozen interleaved `out = a^H * b` kernel (seed tree's k-i-j
/// loop). See [`matmul_interleaved_into`].
pub fn hermitian_matmul_interleaved_into(a: &CMat, b: &CMat, out: &mut CMat) {
    let (kk, m) = a.shape();
    let n = b.cols();
    debug_assert_eq!(b.rows(), kk);
    debug_assert_eq!(out.shape(), (m, n));
    out.as_mut_slice().fill(ZERO);
    for k in 0..kk {
        let arow = a.row(k);
        let brow = b.row(k);
        for (i, &av) in arow.iter().enumerate() {
            let ac = av.conj();
            let orow = out.row_mut(i);
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o = o.mul_add(ac, bv);
            }
        }
    }
    flops::add(flops::CMAC * (m * kk * n) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize, seed: u64) -> CMat {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        CMat::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Cx::new(
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
                (state >> 17) as f64 / (1u64 << 47) as f64 - 0.5,
            )
        })
    }

    #[test]
    fn planar_pack_roundtrip() {
        let a = sample(5, 7, 1);
        let mut p = PlanarMat::new();
        p.pack_from(&a);
        for i in 0..5 {
            for j in 0..7 {
                assert_eq!(p.at(i, j), a[(i, j)]);
            }
        }
    }

    #[test]
    fn hermitian_pack_is_conjugate_transpose() {
        let a = sample(6, 4, 2);
        let mut p = PlanarMat::new();
        p.pack_hermitian_from(&a);
        assert_eq!(p.shape(), (4, 6));
        for i in 0..4 {
            for k in 0..6 {
                assert_eq!(p.at(i, k), a[(k, i)].conj());
            }
        }
    }

    #[test]
    fn pack_cols_transposed_matches_elementwise_pack() {
        // Column counts around the 4-run blocking, bands at an offset.
        for (rows, cols, col0, nc) in [(3, 9, 2, 7), (16, 12, 0, 12), (5, 4, 1, 3), (2, 8, 8, 0)] {
            let src = sample(nc, rows, 5); // `[column][row]`
            let before = sample(rows, cols, 6);
            let mut got = PlanarMat::new();
            got.pack_from(&before);
            got.pack_cols_transposed(col0, src.as_slice());
            for r in 0..rows {
                for c in 0..cols {
                    let want = if (col0..col0 + nc).contains(&c) {
                        src[(c - col0, r)]
                    } else {
                        before[(r, c)]
                    };
                    assert_eq!(got.at(r, c), want, "{rows}x{cols} band {col0}+{nc}");
                }
            }
        }
    }

    #[test]
    fn engine_matches_interleaved_exactly_all_remainders() {
        // Cover the MR/NR remainder paths: odd rows, non-multiple cols.
        let mut ws = GemmScratch::new();
        for (m, k, n) in [
            (1, 1, 1),
            (2, 3, 8),
            (3, 5, 9),
            (5, 16, 17),
            (6, 16, 512),
            (7, 32, 137),
            (2, 0, 5),
        ] {
            let a = sample(m, k, (m * 100 + n) as u64);
            let b = sample(k, n, (k * 7 + 3) as u64);
            let mut want = CMat::zeros(m, n);
            matmul_interleaved_into(&a, &b, &mut want);
            let mut got = CMat::zeros(m, n);
            matmul_planar_into(&a, &b, &mut got, &mut ws);
            assert!(got == want, "mismatch at {m}x{k}x{n}");
        }
    }

    #[test]
    fn hermitian_engine_matches_interleaved_exactly() {
        let mut ws = GemmScratch::new();
        for (kk, m, n) in [(16, 6, 512), (32, 6, 137), (9, 3, 11), (48, 16, 16)] {
            let a = sample(kk, m, 11);
            let b = sample(kk, n, 12);
            let mut want = CMat::zeros(m, n);
            hermitian_matmul_interleaved_into(&a, &b, &mut want);
            let mut got = CMat::zeros(m, n);
            hermitian_matmul_planar_into(&a, &b, &mut got, &mut ws);
            assert!(got == want, "mismatch at {kk}^H {m}x{n}");
        }
    }

    #[test]
    fn fill_from_fn_gathers_in_row_major_order() {
        let mut p = PlanarMat::new();
        p.fill_from_fn(3, 4, |i, j| Cx::new(i as f64, j as f64));
        assert_eq!(p.at(2, 3), Cx::new(2.0, 3.0));
        // Reuse at a smaller shape must not leak stale dims.
        p.fill_from_fn(2, 2, |i, j| Cx::new((i + j) as f64, 0.0));
        assert_eq!(p.shape(), (2, 2));
        assert_eq!(p.at(1, 1), Cx::new(2.0, 0.0));
    }

    #[test]
    fn flop_count_matches_interleaved_convention() {
        let a = sample(4, 8, 3);
        let b = sample(8, 16, 4);
        let mut out = CMat::zeros(4, 16);
        let mut ws = GemmScratch::new();
        let (_, n) = flops::count(|| matmul_planar_into(&a, &b, &mut out, &mut ws));
        assert_eq!(n, 8 * 4 * 8 * 16);
    }
}
