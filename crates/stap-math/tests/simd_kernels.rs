//! Property tests for the bit-identity contract of the runtime SIMD
//! backend: every dispatched kernel must produce **bit-identical**
//! output with the backend forced to AVX2 and forced to scalar.
//!
//! Everything runs inside ONE `#[test]`: the backend selector is a
//! process-wide atomic, and libtest runs `#[test]`s concurrently — a
//! second toggling test would race. On machines without AVX2 the test
//! degenerates to scalar-vs-scalar and passes trivially (the CI scalar
//! job covers that configuration explicitly via `STAP_SIMD=off`).

use stap_math::fft::{Fft, FftScratch};
use stap_math::gemm::{
    hermitian_matmul_planar_into, matmul_interleaved_into, matmul_planar_into, GemmScratch,
};
use stap_math::simd::{self, Backend};
use stap_math::{CMat, Cx};

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn rng_cx(state: &mut u64) -> Cx {
    Cx::new(
        (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
        (xorshift(state) >> 17) as f64 / (1u64 << 47) as f64 - 0.5,
    )
}

fn rng_vec(n: usize, seed: u64) -> Vec<Cx> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..n).map(|_| rng_cx(&mut s)).collect()
}

/// `bits` with its biased exponent replaced by `e` clamped to the
/// finite range `[0, 2046]` (0 is the subnormals).
fn with_exp(bits: u64, e: i64) -> f64 {
    f64::from_bits(bits & !(0x7FF << 52) | (e.clamp(0, 2046) as u64) << 52)
}

/// `x` moved `k` representable values away from zero (towards it for
/// negative `k`).
fn nudge(x: f64, k: i64) -> f64 {
    f64::from_bits(x.to_bits().wrapping_add_signed(k))
}

/// One operand pair for the magnitude kernel, from one of six regimes
/// picked at random: raw bits (every exponent, subnormals, now and then
/// an infinity or NaN); a second part within 2^±58 of the first at any
/// exponent (the kernel, its `2^511` and `2^-459` rescaling edges and
/// its `2^-54` cut-off); the smaller part a few ulps either side of
/// `ax * 2^-54`, and either side of `ax / sqrt(3)` (where `h <= 2ay`
/// flips); ±0, ±∞, NaN and the range edges against anything;
/// training-like values of one scale. Signs are random.
fn hypot_pair(s: &mut u64) -> (f64, f64) {
    const SPECIAL: [f64; 12] = [
        0.0,
        f64::INFINITY,
        f64::NAN,
        f64::MIN_POSITIVE,
        5e-324,
        f64::MAX,
        1.0,
        6.703903964971299e153,  // 2^511
        6.717876107567089e-139, // 2^-459
        5.551115123125783e-17,  // 2^-54
        1.0e-300,
        1.0e300,
    ];
    let raw = xorshift(s);
    let ex = (raw >> 52 & 0x7FF) as i64;
    let near = |s: &mut u64, spread: u64| {
        let delta = (xorshift(s) % (2 * spread + 1)) as i64 - spread as i64;
        with_exp(xorshift(s), ex + delta)
    };
    let (x, y) = match xorshift(s) % 8 {
        0 => (f64::from_bits(raw), f64::from_bits(xorshift(s))),
        1 | 2 => (f64::from_bits(raw), near(s, 58)),
        3 => {
            let x = with_exp(raw, ex.clamp(60, 2000)).abs();
            (
                x,
                nudge(x * 5.551115123125783e-17, (xorshift(s) % 7) as i64 - 3),
            )
        }
        4 => {
            let x = with_exp(raw, ex.clamp(60, 2000)).abs();
            (x, nudge(x / 3f64.sqrt(), (xorshift(s) % 17) as i64 - 8))
        }
        5 => {
            let special = SPECIAL[(xorshift(s) % 12) as usize];
            let special = nudge(special, (xorshift(s) % 3) as i64 - 1);
            let other = match xorshift(s) % 3 {
                0 => SPECIAL[(xorshift(s) % 12) as usize],
                1 => f64::from_bits(raw),
                _ => near(s, 4),
            };
            (special, other)
        }
        _ => (with_exp(raw, 1023 + (ex % 8) - 4), near(s, 0) * 1.5),
    };
    let flip = xorshift(s);
    let sign = |v: f64, bit: u64| f64::from_bits(v.to_bits() ^ (flip >> bit & 1) << 63);
    if flip & 4 == 0 {
        (sign(x, 0), sign(y, 1))
    } else {
        (sign(y, 0), sign(x, 1))
    }
}

fn bits(v: &[Cx]) -> Vec<(u64, u64)> {
    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

/// Runs `f` under both backends and asserts the outputs agree bitwise.
fn ab<T: PartialEq + std::fmt::Debug>(what: &str, mut f: impl FnMut() -> T) {
    simd::set_backend(Some(Backend::Scalar));
    let scalar = f();
    simd::set_backend(if simd::avx2_available() {
        Some(Backend::Avx2)
    } else {
        Some(Backend::Scalar)
    });
    let vector = f();
    simd::set_backend(None);
    assert_eq!(scalar, vector, "{what}: SIMD output differs from scalar");
}

#[test]
fn simd_kernels_bit_match_scalar() {
    // --- pointwise complex multiply (pulse compression spectrum). ----
    for n in [0, 1, 2, 3, 7, 64, 127, 512] {
        let src = rng_vec(n, 11 + n as u64);
        let base = rng_vec(n, 1000 + n as u64);
        ab(&format!("cmul_in_place n={n}"), || {
            let mut dst = base.clone();
            simd::cmul_in_place(&mut dst, &src);
            bits(&dst)
        });
    }

    // --- norm_sqr power detection. -----------------------------------
    for n in [0, 1, 3, 4, 5, 64, 130, 511] {
        let src = rng_vec(n, 77 + n as u64);
        ab(&format!("norm_sqr_into n={n}"), || {
            let mut out = vec![0.0f64; n];
            simd::norm_sqr_into(&mut out, &src);
            out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        });
    }

    // --- Magnitudes: four lanes split, and summed in element order. --
    let mut s = 0x5EEDu64;
    let pairs: Vec<Cx> = (0..400_000)
        .map(|_| {
            let (x, y) = hypot_pair(&mut s);
            Cx::new(x, y)
        })
        .collect();
    ab("abs_lanes", || {
        pairs
            .as_chunks::<4>()
            .0
            .iter()
            .flat_map(|c| simd::abs_lanes(c.map(|x| x.re), c.map(|x| x.im)))
            .map(f64::to_bits)
            .collect::<Vec<_>>()
    });
    // Finite training-like values (the sums stay finite), and the
    // special-laden pairs (sums of few terms, so one NaN or ∞ does not
    // hide the rest). A sum of two NaNs is some NaN: which operand's
    // payload x86 returns depends on the operand order, and `a + b` is
    // commutative to the compiler, so NaN sums compare as NaN.
    let train = rng_vec(4099, 123);
    for n in [0, 1, 3, 4, 5, 7, 8, 64, 130, 1001, 4099] {
        ab(&format!("sum_abs n={n}"), || {
            simd::sum_abs(0.25, &train[..n]).to_bits()
        });
    }
    for n in [1, 2, 3, 5, 6, 7, 9] {
        ab(&format!("sum_abs specials n={n}"), || {
            pairs
                .chunks(n)
                .map(|c| match simd::sum_abs(-0.0, c) {
                    s if s.is_nan() => None,
                    s => Some(s.to_bits()),
                })
                .collect::<Vec<_>>()
        });
    }

    // --- Doppler taper / stagger-correction application. -------------
    for (n, wlen) in [(8, 5), (32, 24), (128, 96), (7, 7), (2, 1)] {
        let src = rng_vec(n, 5 + n as u64);
        let mut s = 0xABCDu64 + wlen as u64;
        let win: Vec<f64> = (0..wlen)
            .map(|_| (xorshift(&mut s) >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        ab(&format!("taper_into n={n} wlen={wlen}"), || {
            let mut out = vec![Cx::default(); n];
            simd::taper_into(&mut out, &src, &win, 0.731);
            bits(&out)
        });
    }

    // --- GEMM micro-kernels (2x8 panels, 1-row tail, remainders), ----
    // and both planar products against the frozen interleaved kernel.
    let mut ws = GemmScratch::new();
    for (m, k, n) in [
        (2, 16, 8),
        (5, 16, 17),
        (6, 16, 512),
        (7, 32, 137),
        (1, 9, 8),
    ] {
        let a = CMat::from_fn(m, k, |i, j| {
            let mut s = (i * 131 + j * 31 + 7) as u64 | 1;
            rng_cx(&mut s)
        });
        let b = CMat::from_fn(k, n, |i, j| {
            let mut s = (i * 17 + j * 3 + 5) as u64 | 1;
            rng_cx(&mut s)
        });
        ab(&format!("gemm_planar {m}x{k}x{n}"), || {
            let mut out = CMat::zeros(m, n);
            matmul_planar_into(&a, &b, &mut out, &mut ws);
            bits(out.as_slice())
        });
        // The scalar planar engine is itself pinned to the interleaved
        // kernel; re-assert here so the chain scalar == planar == SIMD
        // is closed in one place.
        let mut want = CMat::zeros(m, n);
        matmul_interleaved_into(&a, &b, &mut want);
        let mut got = CMat::zeros(m, n);
        simd::set_backend(Some(Backend::Scalar));
        matmul_planar_into(&a, &b, &mut got, &mut ws);
        simd::set_backend(None);
        assert_eq!(bits(want.as_slice()), bits(got.as_slice()));
    }
    for (kk, m, n) in [(16, 6, 512), (32, 6, 137), (48, 16, 16)] {
        let a = CMat::from_fn(kk, m, |i, j| {
            let mut s = (i * 7 + j * 113 + 3) as u64 | 1;
            rng_cx(&mut s)
        });
        let b = CMat::from_fn(kk, n, |i, j| {
            let mut s = (i * 41 + j + 13) as u64 | 1;
            rng_cx(&mut s)
        });
        ab(&format!("hermitian_gemm {kk}^H {m}x{n}"), || {
            let mut out = CMat::zeros(m, n);
            hermitian_matmul_planar_into(&a, &b, &mut out, &mut ws);
            bits(out.as_slice())
        });
    }

    // --- FFT butterflies: forward and inverse, every plan shape the --
    // pipeline uses (radix-8 first stage at 128/512, radix-4 at 64/256,
    // single-stage n<=8, batched lanes).
    for n in [16, 32, 64, 128, 256, 512] {
        let fft = Fft::new(n);
        let input = rng_vec(n, 31 + n as u64);
        ab(&format!("fft_forward n={n}"), || {
            let mut d = input.clone();
            fft.forward(&mut d);
            bits(&d)
        });
        ab(&format!("fft_inverse n={n}"), || {
            let mut d = input.clone();
            fft.inverse(&mut d);
            bits(&d)
        });
    }
    let fft = Fft::new(128);
    let lanes = rng_vec(128 * 32, 99);
    ab("fft_forward_lanes 32x128", || {
        let mut d = lanes.clone();
        let mut scratch = FftScratch::new();
        fft.forward_lanes(&mut d, &mut scratch);
        bits(&d)
    });

    // --- Strided 16-byte gather (redistribution transpose rows). -----
    for (n, stride) in [(1usize, 3usize), (2, 5), (15, 7), (16, 16), (33, 2)] {
        let src = rng_vec(n * stride, 7 + (n * stride) as u64);
        ab(&format!("gather_16b n={n} stride={stride}"), || {
            let mut dst = vec![Cx::default(); n];
            // SAFETY: src holds n*stride elements, dst holds n; the
            // buffers are distinct.
            unsafe {
                simd::gather_16b_strided(
                    dst.as_mut_ptr() as *mut u8,
                    src.as_ptr() as *const u8,
                    n,
                    stride,
                );
            }
            // Cross-check against the definition while we're here.
            for (i, d) in dst.iter().enumerate() {
                assert_eq!(*d, src[i * stride]);
            }
            bits(&dst)
        });
    }
}

/// `Cx::abs` is glibc's `hypot`, bit for bit, on ten million pairs from
/// every regime of [`hypot_pair`]. With that, a change from `f64::hypot`
/// to `Cx::abs` cannot move a golden or a digest on a glibc host, and
/// the SIMD test above carries the result to the four-lane kernels.
/// Gated on glibc: other C libraries (musl, the BSDs, macOS) round
/// `hypot` differently, and glibc before 2.35 used another algorithm.
#[cfg(target_env = "gnu")]
#[test]
fn cx_abs_is_glibc_hypot_bitwise() {
    let mut s = 0xC0FFEEu64;
    for i in 0..10_000_000u64 {
        let (x, y) = hypot_pair(&mut s);
        let (got, want) = (Cx::new(x, y).abs(), x.hypot(y));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "pair {i}: hypot({x:e}, {y:e})"
        );
    }
}
