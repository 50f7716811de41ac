//! Runtime-dispatched SIMD backend for the hot inner loops.
//!
//! The paper's per-task scaling model (Fig. 11, Tables 7–10) assumes
//! each kernel runs at the hardware arithmetic rate. The scalar loops
//! in `gemm`, `fft`, pulse compression, Doppler tapering, redistribution
//! packing and the weight tasks' magnitudes leave lanes on the table on
//! any AVX2-capable x86-64; this module provides hand-vectorized
//! versions of exactly those loops, selected **at runtime** via
//! [`std::is_x86_feature_detected!`] so one binary runs everywhere (the
//! scalar code stays compiled in as the fallback and as the reference
//! the vector paths are tested against).
//!
//! The dispatched kernels: [`cmul_in_place`] and [`norm_sqr_into`]
//! (pulse compression), [`taper_into`] (Doppler), [`gather_16b_strided`]
//! (redistribution), [`abs_lanes`] and [`sum_abs`] (the magnitude
//! kernel: [`Cx::abs`], which is glibc's `hypot` bit for bit, four lanes
//! at a time, for the weight tasks' constraint scale and their lane
//! reflectors), and, called from `gemm` and `fft`, the GEMM
//! micro-kernels and radix-4 butterflies of `avx2`.
//!
//! **Bit-identity contract**: every vector path performs the same
//! floating-point operations in the same per-element order as its
//! scalar twin — no reassociation, no FMA contraction, negation as IEEE
//! sign flips — so SIMD-on and SIMD-off runs produce *bit-identical*
//! outputs. Where a vector lane sums two products in the opposite
//! operand order to the scalar code (`a.im*b.re + a.re*b.im` vs
//! `a.re*b.im + a.im*b.re`), IEEE-754 addition commutativity makes the
//! results bitwise equal for non-NaN inputs. The property tests in
//! `tests/simd_kernels.rs` enforce the contract kernel by kernel, and
//! the end-to-end test in the facade crate pins identical detections
//! and trace multisets.
//!
//! **Override**: set `STAP_SIMD=off` (or `0`, `scalar`, `none`) to
//! force the scalar fallback — used by the CI scalar job and by the
//! A/B property tests. The environment is read once; tests can switch
//! backends explicitly through [`set_backend`].

use crate::complex::Cx;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

/// Which implementation the dispatched kernels run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// Portable scalar loops (always compiled, always available).
    Scalar,
    /// AVX2 256-bit lanes (x86-64 only, runtime-detected).
    Avx2,
}

/// 0 = unresolved, 1 = scalar, 2 = avx2.
static BACKEND: AtomicU8 = AtomicU8::new(0);
/// Whether the current backend was forced via [`set_backend`] (tests)
/// rather than auto-resolved — see [`avx2_gemm_dispatch`].
static FORCED: AtomicBool = AtomicBool::new(false);

fn detect() -> Backend {
    if let Ok(v) = std::env::var("STAP_SIMD") {
        let v = v.to_ascii_lowercase();
        if matches!(v.as_str(), "off" | "0" | "scalar" | "none") {
            return Backend::Scalar;
        }
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
    }
    Backend::Scalar
}

/// The backend the dispatched kernels currently use (resolved on first
/// call from CPU detection and the `STAP_SIMD` environment variable).
#[inline]
pub fn backend() -> Backend {
    match BACKEND.load(Ordering::Relaxed) {
        1 => Backend::Scalar,
        2 => Backend::Avx2,
        _ => {
            let b = detect();
            BACKEND.store(
                match b {
                    Backend::Scalar => 1,
                    Backend::Avx2 => 2,
                },
                Ordering::Relaxed,
            );
            b
        }
    }
}

/// Forces the backend (test hook for A/B bit-identity comparisons).
/// `None` re-runs detection on next use. Forcing [`Backend::Avx2`] on a
/// machine without AVX2 is rejected (falls back to detection).
pub fn set_backend(b: Option<Backend>) {
    let v = match b {
        None => 0,
        Some(Backend::Scalar) => 1,
        Some(Backend::Avx2) if avx2_available() => 2,
        Some(Backend::Avx2) => 0,
    };
    FORCED.store(v != 0, Ordering::Relaxed);
    BACKEND.store(v, Ordering::Relaxed);
}

/// Whether the GEMM micro-kernels should take the AVX2 intrinsic path.
///
/// The split-complex micro-kernels are straight-line MAC loops that
/// LLVM auto-vectorizes to full width whenever the *build* already
/// targets AVX2 (`-C target-cpu=native`, see `.cargo/config.toml`) — on
/// such builds the intrinsic path buys nothing and measures a few
/// percent *slower* than the compiler's schedule. Runtime dispatch for
/// GEMM therefore only engages when the binary was compiled without
/// AVX2 in its target features (a portable build recovering the lanes
/// the compiler couldn't assume), or when a test explicitly forces the
/// backend via [`set_backend`] so the bit-identity property tests keep
/// covering the intrinsic kernels on every host. The shuffle-heavy
/// kernels (FFT butterflies, strided gathers, interleave/deinterleave)
/// always dispatch: their data-movement patterns defeat the
/// auto-vectorizer regardless of target features.
#[inline]
pub fn avx2_gemm_dispatch() -> bool {
    backend() == Backend::Avx2 && (!cfg!(target_feature = "avx2") || FORCED.load(Ordering::Relaxed))
}

/// Whether this CPU supports the AVX2 paths (ignores `STAP_SIMD`).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Human-readable description of the dispatch state, recorded in bench
/// metadata: `"avx2"` or `"scalar"`.
pub fn backend_name() -> &'static str {
    match backend() {
        Backend::Scalar => "scalar",
        Backend::Avx2 => "avx2",
    }
}

// ---------------------------------------------------------------------
// Dispatched kernels. Each safe wrapper branches once on the resolved
// backend; the scalar arm is the exact loop the call site ran before
// this module existed.
// ---------------------------------------------------------------------

/// Pointwise complex multiply `dst[i] *= src[i]` — the matched-filter
/// spectrum product of pulse compression.
pub fn cmul_in_place(dst: &mut [Cx], src: &[Cx]) {
    assert_eq!(dst.len(), src.len(), "cmul length mismatch");
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 {
        // SAFETY: AVX2 presence was verified by `backend()`.
        unsafe { avx2::cmul_in_place(dst, src) };
        return;
    }
    for (x, f) in dst.iter_mut().zip(src) {
        *x *= *f;
    }
}

/// Power detection `out[i] = src[i].norm_sqr()`.
pub fn norm_sqr_into(out: &mut [f64], src: &[Cx]) {
    assert_eq!(out.len(), src.len(), "norm_sqr length mismatch");
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 {
        // SAFETY: AVX2 presence was verified by `backend()`.
        unsafe { avx2::norm_sqr_into(out, src) };
        return;
    }
    for (o, v) in out.iter_mut().zip(src) {
        *o = v.norm_sqr();
    }
}

/// Magnitudes `out[l] = Cx::new(re[l], im[l]).abs()` of four complex
/// values given split, as the lane kernels of `qr` hold them.
#[inline]
pub fn abs_lanes(re: [f64; 4], im: [f64; 4]) -> [f64; 4] {
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 {
        // SAFETY: AVX2 presence was verified by `backend()`.
        return unsafe { avx2::abs_lanes(re, im) };
    }
    std::array::from_fn(|l| Cx::new(re[l], im[l]).abs())
}

/// `acc + |src[0]| + |src[1]| + ...`, one addition at a time in element
/// order (the magnitudes are [`Cx::abs`]): the sum behind the weight
/// tasks' constraint scale `mean_abs`.
pub fn sum_abs(acc: f64, src: &[Cx]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 {
        // SAFETY: AVX2 presence was verified by `backend()`.
        return unsafe { avx2::sum_abs(acc, src) };
    }
    src.iter().fold(acc, |s, x| s + x.abs())
}

/// Doppler taper application `out[i] = src[i].scale(win[i] * corr)` over
/// `win.len()` elements.
pub fn taper_into(out: &mut [Cx], src: &[Cx], win: &[f64], corr: f64) {
    let n = win.len();
    assert!(out.len() >= n && src.len() >= n, "taper length mismatch");
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 {
        // SAFETY: AVX2 presence was verified by `backend()`.
        unsafe { avx2::taper_into(&mut out[..n], &src[..n], win, corr) };
        return;
    }
    for i in 0..n {
        out[i] = src[i].scale(win[i] * corr);
    }
}

/// Strided 16-byte-element gather `dst[i] = src[i * stride]` for
/// `dst.len()` elements — the inner row of the transpose-blocked
/// redistribution fallback, expressed over raw 16-byte blobs so the
/// generic cube code can use it for any 16-byte `Copy` payload.
///
/// # Safety
/// `src` must be valid for reads of `dst.len() * stride` elements of
/// 16 bytes, `dst` for writes of `dst.len()` elements, and the regions
/// must not overlap.
pub unsafe fn gather_16b_strided(dst: *mut u8, src: *const u8, n: usize, stride: usize) {
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 {
        // SAFETY: AVX2 verified; pointer contract passed through.
        unsafe { avx2::gather_16b_strided(dst, src, n, stride) };
        return;
    }
    // SAFETY: the caller's contract covers every element read
    // (`i * stride < n * stride`) and written (`i < n`).
    unsafe {
        for i in 0..n {
            std::ptr::copy_nonoverlapping(src.add(i * stride * 16), dst.add(i * 16), 16);
        }
    }
}

// ---------------------------------------------------------------------
// AVX2 kernels (x86-64 only). All follow the bit-identity contract in
// the module docs; per-kernel operation-order notes are inline.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::Cx;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Sign mask that negates the *imaginary* (odd) lanes of a 2-`Cx`
    /// vector via XOR — the exact IEEE sign flip that `-x` compiles to.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[inline(always)]
    unsafe fn neg_odd() -> __m256d {
        // SAFETY: register-only intrinsic; AVX per the caller.
        unsafe { _mm256_setr_pd(0.0, -0.0, 0.0, -0.0) }
    }

    /// Sign mask negating the *real* (even) lanes.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[inline(always)]
    unsafe fn neg_even() -> __m256d {
        // SAFETY: register-only intrinsic; AVX per the caller.
        unsafe { _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0) }
    }

    /// Complex multiply of two packed `Cx` pairs:
    /// `[a0*b0, a1*b1]` with per-component order
    /// `re = a.re*b.re - a.im*b.im`, `im = a.im*b.re + a.re*b.im`.
    /// The scalar `Cx::mul` computes `im = a.re*b.im + a.im*b.re`;
    /// IEEE addition commutativity makes the two bitwise equal for
    /// non-NaN inputs (the property tests pin this).
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[inline(always)]
    unsafe fn cmul2(a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: register-only intrinsics; AVX per the caller.
        unsafe {
            let b_re = _mm256_movedup_pd(b); // [b.re, b.re, ...]
            let b_im = _mm256_permute_pd(b, 0b1111); // [b.im, b.im, ...]
            let t1 = _mm256_mul_pd(a, b_re); // [a.re*b.re, a.im*b.re]
            let a_sw = _mm256_permute_pd(a, 0b0101); // [a.im, a.re, ...]
            let t2 = _mm256_mul_pd(a_sw, b_im); // [a.im*b.im, a.re*b.im]
                                                // addsub: even lanes t1-t2, odd lanes t1+t2.
            _mm256_addsub_pd(t1, t2)
        }
    }

    /// `x * (-i)` (forward) or `x * (+i)` (inverse) as the same
    /// swap-and-sign-flip the scalar `rot90` performs.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[inline(always)]
    unsafe fn rot90_2<const INV: bool>(x: __m256d) -> __m256d {
        // SAFETY: register-only intrinsics; AVX per the caller.
        unsafe {
            let sw = _mm256_permute_pd(x, 0b0101); // [im, re, ...]
            if INV {
                // (-im, re): negate even lanes.
                _mm256_xor_pd(sw, neg_even())
            } else {
                // (im, -re): negate odd lanes.
                _mm256_xor_pd(sw, neg_odd())
            }
        }
    }

    /// Loads two consecutive `[Cx; 3]` twiddle records' `w` component
    /// (records are 48 bytes apart) into one 2-`Cx` vector, conjugating
    /// for the inverse direction (exact sign flip, matching scalar
    /// `w.conj()`). `Cx` is `#[repr(C)] { re, im }`, so a record is
    /// two packed doubles.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available, `which < 3`, and that `tw`
    /// and `tw.add(1)` both point at readable records.
    #[inline(always)]
    unsafe fn load_tw2<const INV: bool>(tw: *const [Cx; 3], which: usize) -> __m256d {
        // SAFETY: AVX per the caller; `which < 3` keeps each 16-byte
        // load inside one of the two readable records.
        unsafe {
            let lo = _mm_loadu_pd((tw as *const Cx).add(which) as *const f64);
            let hi = _mm_loadu_pd((tw.add(1) as *const Cx).add(which) as *const f64);
            let v = _mm256_set_m128d(hi, lo);
            if INV {
                _mm256_xor_pd(v, neg_odd())
            } else {
                v
            }
        }
    }

    /// # Safety
    /// Caller must ensure AVX2 is available and `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn cmul_in_place(dst: &mut [Cx], src: &[Cx]) {
        // SAFETY: AVX2 per the caller; `i + 2 <= n` keeps each 32-byte
        // access (two `Cx`) inside both slices, of equal length `n`.
        unsafe {
            let n = dst.len();
            let d = dst.as_mut_ptr() as *mut f64;
            let s = src.as_ptr() as *const f64;
            let mut i = 0;
            while i + 2 <= n {
                let a = _mm256_loadu_pd(d.add(2 * i));
                let b = _mm256_loadu_pd(s.add(2 * i));
                _mm256_storeu_pd(d.add(2 * i), cmul2(a, b));
                i += 2;
            }
            if i < n {
                dst[i] *= src[i];
            }
        }
    }

    /// # Safety
    /// Caller must ensure AVX2 is available and `out.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn norm_sqr_into(out: &mut [f64], src: &[Cx]) {
        // SAFETY: AVX2 per the caller; `i + 4 <= n` keeps the loads of
        // `src[i..i + 4]` and the store of `out[i..i + 4]` in bounds.
        unsafe {
            let n = out.len();
            let s = src.as_ptr() as *const f64;
            let o = out.as_mut_ptr();
            let mut i = 0;
            while i + 4 <= n {
                let a = _mm256_loadu_pd(s.add(2 * i)); // [re0 im0 re1 im1]
                let b = _mm256_loadu_pd(s.add(2 * i + 4)); // [re2 im2 re3 im3]
                let aa = _mm256_mul_pd(a, a);
                let bb = _mm256_mul_pd(b, b);
                // hadd(aa, bb) = [aa1+aa0, bb1+bb0, aa3+aa2, bb3+bb2]
                //              = [n0, n2, n1, n3]; each lane sums
                // im^2 + re^2 — commutes bitwise with scalar re^2+im^2.
                let h = _mm256_hadd_pd(aa, bb);
                let r = _mm256_permute4x64_pd(h, 0b11011000); // [n0 n1 n2 n3]
                _mm256_storeu_pd(o.add(i), r);
                i += 4;
            }
            while i < n {
                out[i] = src[i].norm_sqr();
                i += 1;
            }
        }
    }

    /// [`Cx::abs`] of four lanes: its ordering of the parts,
    /// `hypot_in_range` and `hypot_kernel`, each operation the same IEEE
    /// operation in the same order (`h <= 2ay` picks between both
    /// branches' terms, computed for every lane). Lanes out of range
    /// are recomputed with `f64::hypot`, as the scalar kernel does.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[inline(always)]
    unsafe fn abs4(re: __m256d, im: __m256d) -> __m256d {
        use crate::complex::{HYPOT_EPS, HYPOT_LARGE, HYPOT_TINY};
        // SAFETY: AVX2 per the caller; besides register operations, the
        // only memory accesses are 32-byte ones to local `[f64; 4]`s.
        unsafe {
            let sign = _mm256_set1_pd(-0.0);
            let a = _mm256_andnot_pd(sign, re);
            let b = _mm256_andnot_pd(sign, im);
            let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(a, b);
            let ax = _mm256_blendv_pd(a, b, lt);
            let ay = _mm256_blendv_pd(b, a, lt);
            let ok = _mm256_and_pd(
                _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_LE_OQ>(ax, _mm256_set1_pd(HYPOT_LARGE)),
                    _mm256_cmp_pd::<_CMP_GE_OQ>(ay, _mm256_set1_pd(HYPOT_TINY)),
                ),
                _mm256_cmp_pd::<_CMP_GT_OQ>(ay, _mm256_mul_pd(ax, _mm256_set1_pd(HYPOT_EPS))),
            );
            let two = _mm256_set1_pd(2.0);
            let h = _mm256_sqrt_pd(_mm256_add_pd(_mm256_mul_pd(ax, ax), _mm256_mul_pd(ay, ay)));
            let near = _mm256_cmp_pd::<_CMP_LE_OQ>(h, _mm256_mul_pd(two, ay));
            // h <= 2ay: d = h - ay.
            let d = _mm256_sub_pd(h, ay);
            let t1n = _mm256_mul_pd(ax, _mm256_sub_pd(_mm256_mul_pd(two, d), ax));
            let t2n = _mm256_mul_pd(
                _mm256_sub_pd(d, _mm256_mul_pd(two, _mm256_sub_pd(ax, ay))),
                d,
            );
            // Otherwise: d = h - ax.
            let d = _mm256_sub_pd(h, ax);
            let t1f = _mm256_mul_pd(
                _mm256_mul_pd(two, d),
                _mm256_sub_pd(ax, _mm256_mul_pd(two, ay)),
            );
            let t2f = _mm256_add_pd(
                _mm256_mul_pd(_mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(4.0), d), ay), ay),
                _mm256_mul_pd(d, d),
            );
            let t1 = _mm256_blendv_pd(t1f, t1n, near);
            let t2 = _mm256_blendv_pd(t2f, t2n, near);
            let r = _mm256_sub_pd(
                h,
                _mm256_div_pd(_mm256_add_pd(t1, t2), _mm256_mul_pd(two, h)),
            );
            let ok = _mm256_movemask_pd(ok);
            if ok == 0b1111 {
                return r;
            }
            let (mut out, mut x, mut y) = ([0.0; 4], [0.0; 4], [0.0; 4]);
            _mm256_storeu_pd(out.as_mut_ptr(), r);
            _mm256_storeu_pd(x.as_mut_ptr(), re);
            _mm256_storeu_pd(y.as_mut_ptr(), im);
            for l in 0..4 {
                if ok & (1 << l) == 0 {
                    out[l] = x[l].hypot(y[l]);
                }
            }
            _mm256_loadu_pd(out.as_ptr())
        }
    }

    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn abs_lanes(re: [f64; 4], im: [f64; 4]) -> [f64; 4] {
        let mut out = [0.0; 4];
        // SAFETY: AVX2 per the caller; each pointer addresses a local
        // `[f64; 4]`, the 32 bytes one unaligned access moves.
        unsafe {
            let m = abs4(_mm256_loadu_pd(re.as_ptr()), _mm256_loadu_pd(im.as_ptr()));
            _mm256_storeu_pd(out.as_mut_ptr(), m);
        }
        out
    }

    /// Four magnitudes per [`abs4`], then four scalar additions in
    /// element order; the tail is the scalar fold.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_abs(mut acc: f64, src: &[Cx]) -> f64 {
        let n = src.len();
        let s = src.as_ptr() as *const f64;
        let mut m = [0.0; 4];
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: AVX2 per the caller; `i + 4 <= n`, so the two
            // loads cover the eight doubles of `src[i..i + 4]`, and the
            // store fills the local `m`.
            unsafe {
                let a = _mm256_loadu_pd(s.add(2 * i)); // [re0 im0 re1 im1]
                let b = _mm256_loadu_pd(s.add(2 * i + 4)); // [re2 im2 re3 im3]
                                                           // [re0 re2 re1 re3] and [im0 im2 im1 im3]: magnitudes
                                                           // land in lanes 0, 2, 1, 3 of `m`.
                let r = abs4(_mm256_unpacklo_pd(a, b), _mm256_unpackhi_pd(a, b));
                _mm256_storeu_pd(m.as_mut_ptr(), r);
            }
            acc = acc + m[0] + m[2] + m[1] + m[3];
            i += 4;
        }
        src[i..].iter().fold(acc, |s, x| s + x.abs())
    }

    /// # Safety
    /// Caller must ensure AVX2 is available and
    /// `out.len() == src.len() == win.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn taper_into(out: &mut [Cx], src: &[Cx], win: &[f64], corr: f64) {
        // SAFETY: AVX2 per the caller; `i + 2 <= n` keeps the loads of
        // `src[i..i + 2]` and `win[i..i + 2]` and the store of
        // `out[i..i + 2]` in bounds (all three hold `n`).
        unsafe {
            let n = win.len();
            let s = src.as_ptr() as *const f64;
            let o = out.as_mut_ptr() as *mut f64;
            let corr_v = _mm_set1_pd(corr);
            let mut i = 0;
            while i + 2 <= n {
                let a = _mm256_loadu_pd(s.add(2 * i));
                // w[i] = win[i] * corr, same operand order as scalar.
                let w2 = _mm_mul_pd(_mm_loadu_pd(win.as_ptr().add(i)), corr_v);
                // [w0, w0, w1, w1]
                let wd = _mm256_permute4x64_pd(_mm256_castpd128_pd256(w2), 0b01010000);
                _mm256_storeu_pd(o.add(2 * i), _mm256_mul_pd(a, wd));
                i += 2;
            }
            if i < n {
                out[i] = src[i].scale(win[i] * corr);
            }
        }
    }

    /// The 2×8 GEMM register tile: same accumulation update order as
    /// the scalar `micro_2xnr` — `(c + x_r*br) - x_i*bi` and
    /// `(c + x_r*bi) + x_i*br` — with each 8-wide accumulator row held
    /// in two 256-bit registers.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available; `a0r/a0i/a1r/a1i` must
    /// have `kk` elements; `br`/`bi` must be readable at
    /// `k * n + j + 8` for all `k < kk`; `out` rows as in the scalar
    /// kernel.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn micro_2x8(
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
        ncols: usize,
    ) {
        // SAFETY: AVX2 per the caller; the B loads read
        // `k * n + j .. k * n + j + 8` for `k < kk`, readable per the
        // caller, `k < kk` indexes the four A slices of `kk` elements,
        // and the stores go through bounds-checked subslices.
        unsafe {
            let mut c0r_l = _mm256_setzero_pd();
            let mut c0r_h = _mm256_setzero_pd();
            let mut c0i_l = _mm256_setzero_pd();
            let mut c0i_h = _mm256_setzero_pd();
            let mut c1r_l = _mm256_setzero_pd();
            let mut c1r_h = _mm256_setzero_pd();
            let mut c1i_l = _mm256_setzero_pd();
            let mut c1i_h = _mm256_setzero_pd();
            let brp = br.as_ptr();
            let bip = bi.as_ptr();
            for k in 0..kk {
                let o = k * n + j;
                let br_l = _mm256_loadu_pd(brp.add(o));
                let br_h = _mm256_loadu_pd(brp.add(o + 4));
                let bi_l = _mm256_loadu_pd(bip.add(o));
                let bi_h = _mm256_loadu_pd(bip.add(o + 4));
                let x0r = _mm256_set1_pd(*a0r.get_unchecked(k));
                let x0i = _mm256_set1_pd(*a0i.get_unchecked(k));
                let x1r = _mm256_set1_pd(*a1r.get_unchecked(k));
                let x1i = _mm256_set1_pd(*a1i.get_unchecked(k));
                c0r_l = _mm256_sub_pd(
                    _mm256_add_pd(c0r_l, _mm256_mul_pd(x0r, br_l)),
                    _mm256_mul_pd(x0i, bi_l),
                );
                c0r_h = _mm256_sub_pd(
                    _mm256_add_pd(c0r_h, _mm256_mul_pd(x0r, br_h)),
                    _mm256_mul_pd(x0i, bi_h),
                );
                c0i_l = _mm256_add_pd(
                    _mm256_add_pd(c0i_l, _mm256_mul_pd(x0r, bi_l)),
                    _mm256_mul_pd(x0i, br_l),
                );
                c0i_h = _mm256_add_pd(
                    _mm256_add_pd(c0i_h, _mm256_mul_pd(x0r, bi_h)),
                    _mm256_mul_pd(x0i, br_h),
                );
                c1r_l = _mm256_sub_pd(
                    _mm256_add_pd(c1r_l, _mm256_mul_pd(x1r, br_l)),
                    _mm256_mul_pd(x1i, bi_l),
                );
                c1r_h = _mm256_sub_pd(
                    _mm256_add_pd(c1r_h, _mm256_mul_pd(x1r, br_h)),
                    _mm256_mul_pd(x1i, bi_h),
                );
                c1i_l = _mm256_add_pd(
                    _mm256_add_pd(c1i_l, _mm256_mul_pd(x1r, bi_l)),
                    _mm256_mul_pd(x1i, br_l),
                );
                c1i_h = _mm256_add_pd(
                    _mm256_add_pd(c1i_h, _mm256_mul_pd(x1r, bi_h)),
                    _mm256_mul_pd(x1i, br_h),
                );
            }
            store_row(&mut out_rows[j..j + 8], c0r_l, c0r_h, c0i_l, c0i_h);
            store_row(
                &mut out_rows[ncols + j..ncols + j + 8],
                c1r_l,
                c1r_h,
                c1i_l,
                c1i_h,
            );
        }
    }

    /// Single-row variant of [`micro_2x8`] (the `m % 2 == 1` tail
    /// panel), same update order as the scalar row loop.
    ///
    /// # Safety
    /// As [`micro_2x8`] for one row.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn micro_1x8(
        kk: usize,
        n: usize,
        j: usize,
        a0r: &[f64],
        a0i: &[f64],
        br: &[f64],
        bi: &[f64],
        out_row: &mut [Cx],
    ) {
        // SAFETY: as in `micro_2x8`, for one row.
        unsafe {
            let mut cr_l = _mm256_setzero_pd();
            let mut cr_h = _mm256_setzero_pd();
            let mut ci_l = _mm256_setzero_pd();
            let mut ci_h = _mm256_setzero_pd();
            let brp = br.as_ptr();
            let bip = bi.as_ptr();
            for k in 0..kk {
                let o = k * n + j;
                let br_l = _mm256_loadu_pd(brp.add(o));
                let br_h = _mm256_loadu_pd(brp.add(o + 4));
                let bi_l = _mm256_loadu_pd(bip.add(o));
                let bi_h = _mm256_loadu_pd(bip.add(o + 4));
                let xr = _mm256_set1_pd(*a0r.get_unchecked(k));
                let xi = _mm256_set1_pd(*a0i.get_unchecked(k));
                cr_l = _mm256_sub_pd(
                    _mm256_add_pd(cr_l, _mm256_mul_pd(xr, br_l)),
                    _mm256_mul_pd(xi, bi_l),
                );
                cr_h = _mm256_sub_pd(
                    _mm256_add_pd(cr_h, _mm256_mul_pd(xr, br_h)),
                    _mm256_mul_pd(xi, bi_h),
                );
                ci_l = _mm256_add_pd(
                    _mm256_add_pd(ci_l, _mm256_mul_pd(xr, bi_l)),
                    _mm256_mul_pd(xi, br_l),
                );
                ci_h = _mm256_add_pd(
                    _mm256_add_pd(ci_h, _mm256_mul_pd(xr, bi_h)),
                    _mm256_mul_pd(xi, br_h),
                );
            }
            store_row(&mut out_row[j..j + 8], cr_l, cr_h, ci_l, ci_h);
        }
    }

    /// Interleaves split accumulators `[r0..r3] x [i0..i3]` into 8
    /// consecutive `Cx` slots.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and `out.len() >= 8`.
    #[inline(always)]
    unsafe fn store_row(out: &mut [Cx], r_l: __m256d, r_h: __m256d, i_l: __m256d, i_h: __m256d) {
        // SAFETY: AVX per the caller; the four 32-byte stores cover the
        // 16 doubles of `out[..8]`.
        unsafe {
            let p = out.as_mut_ptr() as *mut f64;
            // unpacklo/hi give [r0 i0 r2 i2] / [r1 i1 r3 i3]; the
            // 128-bit permutes rebuild [r0 i0 r1 i1] / [r2 i2 r3 i3].
            let lo = _mm256_unpacklo_pd(r_l, i_l);
            let hi = _mm256_unpackhi_pd(r_l, i_l);
            _mm256_storeu_pd(p, _mm256_permute2f128_pd(lo, hi, 0x20));
            _mm256_storeu_pd(p.add(4), _mm256_permute2f128_pd(lo, hi, 0x31));
            let lo = _mm256_unpacklo_pd(r_h, i_h);
            let hi = _mm256_unpackhi_pd(r_h, i_h);
            _mm256_storeu_pd(p.add(8), _mm256_permute2f128_pd(lo, hi, 0x20));
            _mm256_storeu_pd(p.add(12), _mm256_permute2f128_pd(lo, hi, 0x31));
        }
    }

    /// One in-place radix-4 butterfly stage over four `h`-element
    /// quarters, two butterflies per iteration (`h` is a power of two
    /// ≥ 4 for every tabled stage, so there is no remainder). Exact
    /// operation order of the scalar stage: twiddle multiplies via
    /// [`cmul2`], the ±i factor via [`rot90_2`], adds/subs unpermuted.
    ///
    /// # Safety
    /// Caller must ensure AVX2; `q0..q3` and `tw` must all have `h`
    /// elements with `h` even.
    #[target_feature(enable = "avx2")]
    pub unsafe fn radix4_stage<const INV: bool>(
        q0: &mut [Cx],
        q1: &mut [Cx],
        q2: &mut [Cx],
        q3: &mut [Cx],
        tw: &[[Cx; 3]],
    ) {
        // SAFETY: AVX2 per the caller; `i + 2 <= h` keeps each 32-byte
        // access inside the four `h`-element quarters, and the twiddle
        // loads read records `i` and `i + 1` of the `h` in `tw`.
        unsafe {
            let h = q0.len();
            let p0 = q0.as_mut_ptr() as *mut f64;
            let p1 = q1.as_mut_ptr() as *mut f64;
            let p2 = q2.as_mut_ptr() as *mut f64;
            let p3 = q3.as_mut_ptr() as *mut f64;
            let twp = tw.as_ptr();
            let mut i = 0;
            while i + 2 <= h {
                let w1 = load_tw2::<INV>(twp.add(i), 0);
                let w2 = load_tw2::<INV>(twp.add(i), 1);
                let w3 = load_tw2::<INV>(twp.add(i), 2);
                let a = _mm256_loadu_pd(p0.add(2 * i));
                let b = cmul2(_mm256_loadu_pd(p1.add(2 * i)), w1);
                let c = cmul2(_mm256_loadu_pd(p2.add(2 * i)), w2);
                let d = cmul2(_mm256_loadu_pd(p3.add(2 * i)), w3);
                let apc = _mm256_add_pd(a, c);
                let amc = _mm256_sub_pd(a, c);
                let bpd = _mm256_add_pd(b, d);
                let bmd = rot90_2::<INV>(_mm256_sub_pd(b, d));
                _mm256_storeu_pd(p0.add(2 * i), _mm256_add_pd(apc, bpd));
                _mm256_storeu_pd(p1.add(2 * i), _mm256_add_pd(amc, bmd));
                _mm256_storeu_pd(p2.add(2 * i), _mm256_sub_pd(apc, bpd));
                _mm256_storeu_pd(p3.add(2 * i), _mm256_sub_pd(amc, bmd));
                i += 2;
            }
        }
    }

    /// Out-of-place variant of [`radix4_stage`] for the last FFT stage
    /// (reads scratch quarters, writes the caller's buffer).
    ///
    /// # Safety
    /// As [`radix4_stage`]; sources and destinations must not overlap.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn radix4_stage_oop<const INV: bool>(
        d0: &mut [Cx],
        d1: &mut [Cx],
        d2: &mut [Cx],
        d3: &mut [Cx],
        s0: &[Cx],
        s1: &[Cx],
        s2: &[Cx],
        s3: &[Cx],
        tw: &[[Cx; 3]],
    ) {
        // SAFETY: as in `radix4_stage`, over the four source and four
        // destination quarters of `h` elements each.
        unsafe {
            let h = s0.len();
            let o0 = d0.as_mut_ptr() as *mut f64;
            let o1 = d1.as_mut_ptr() as *mut f64;
            let o2 = d2.as_mut_ptr() as *mut f64;
            let o3 = d3.as_mut_ptr() as *mut f64;
            let p0 = s0.as_ptr() as *const f64;
            let p1 = s1.as_ptr() as *const f64;
            let p2 = s2.as_ptr() as *const f64;
            let p3 = s3.as_ptr() as *const f64;
            let twp = tw.as_ptr();
            let mut i = 0;
            while i + 2 <= h {
                let w1 = load_tw2::<INV>(twp.add(i), 0);
                let w2 = load_tw2::<INV>(twp.add(i), 1);
                let w3 = load_tw2::<INV>(twp.add(i), 2);
                let a = _mm256_loadu_pd(p0.add(2 * i));
                let b = cmul2(_mm256_loadu_pd(p1.add(2 * i)), w1);
                let c = cmul2(_mm256_loadu_pd(p2.add(2 * i)), w2);
                let d = cmul2(_mm256_loadu_pd(p3.add(2 * i)), w3);
                let apc = _mm256_add_pd(a, c);
                let amc = _mm256_sub_pd(a, c);
                let bpd = _mm256_add_pd(b, d);
                let bmd = rot90_2::<INV>(_mm256_sub_pd(b, d));
                _mm256_storeu_pd(o0.add(2 * i), _mm256_add_pd(apc, bpd));
                _mm256_storeu_pd(o1.add(2 * i), _mm256_add_pd(amc, bmd));
                _mm256_storeu_pd(o2.add(2 * i), _mm256_sub_pd(apc, bpd));
                _mm256_storeu_pd(o3.add(2 * i), _mm256_sub_pd(amc, bmd));
                i += 2;
            }
        }
    }

    /// Strided 16-byte gather, two elements per 32-byte store (pure
    /// data movement, trivially bit-exact).
    ///
    /// # Safety
    /// As [`super::gather_16b_strided`], plus AVX2 availability.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather_16b_strided(dst: *mut u8, src: *const u8, n: usize, stride: usize) {
        // SAFETY: AVX2 per the caller; element `i < n` is read at
        // `src + i * stride * 16` and written at `dst + i * 16`, inside
        // the regions the caller vouches for.
        unsafe {
            let step = stride * 16;
            let mut i = 0;
            while i + 2 <= n {
                let lo = _mm_loadu_si128(src.add(i * step) as *const __m128i);
                let hi = _mm_loadu_si128(src.add((i + 1) * step) as *const __m128i);
                _mm256_storeu_si256(dst.add(i * 16) as *mut __m256i, _mm256_set_m128i(hi, lo));
                i += 2;
            }
            if i < n {
                std::ptr::copy_nonoverlapping(src.add(i * step), dst.add(i * 16), 16);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_detection_resolves() {
        // Whatever the environment, detection must settle on a value
        // and honour explicit forcing.
        let b = backend();
        assert!(matches!(b, Backend::Scalar | Backend::Avx2));
        set_backend(Some(Backend::Scalar));
        assert_eq!(backend(), Backend::Scalar);
        assert_eq!(backend_name(), "scalar");
        set_backend(None);
        let _ = backend();
    }
}
