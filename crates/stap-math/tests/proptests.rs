//! Property-based tests for the numerical kernels (in-tree harness;
//! see `stap_util::check`).

use stap_math::fft::{dft_naive, Direction, Fft, FftScratch};
use stap_math::flops;
use stap_math::gemm::{
    gemm_planar_into, gemm_planar_into_strided, hermitian_matmul_interleaved_into,
    hermitian_matmul_planar_into, matmul_interleaved_into, matmul_planar_into, GemmScratch,
    PlanarMat, GEMM_CUTOFF,
};
use stap_math::qr::{
    is_upper_triangular, qr_r, qr_update, qr_update_lanes, qr_update_with, LaneMat, QrScratch,
    LANES,
};
use stap_math::solve::{
    back_substitute, constrained_lstsq, constrained_lstsq_from_r_lanes,
    constrained_lstsq_from_r_with, constrained_lstsq_lanes, lstsq, LaneSolveScratch, SolveScratch,
};
use stap_math::{CMat, Cx};
use stap_util::check::{check, Gen};

fn cx(g: &mut Gen) -> Cx {
    Cx::new(g.float(-100.0, 100.0), g.float(-100.0, 100.0))
}

fn cvec(g: &mut Gen, len: usize) -> Vec<Cx> {
    g.vec(len, cx)
}

fn cmat(g: &mut Gen, rows: usize, cols: usize) -> CMat {
    let v = cvec(g, rows * cols);
    CMat::from_vec(rows, cols, v)
}

#[test]
fn complex_mul_commutes() {
    check("complex_mul_commutes", 64, |g| {
        let (a, b) = (cx(g), cx(g));
        assert!((a * b).approx_eq(b * a, 1e-9));
    });
}

#[test]
fn complex_distributive() {
    check("complex_distributive", 64, |g| {
        let (a, b, c) = (cx(g), cx(g), cx(g));
        assert!((a * (b + c)).approx_eq(a * b + a * c, 1e-6));
    });
}

#[test]
fn conj_is_multiplicative() {
    check("conj_is_multiplicative", 64, |g| {
        let (a, b) = (cx(g), cx(g));
        assert!((a * b).conj().approx_eq(a.conj() * b.conj(), 1e-8));
    });
}

#[test]
fn fft_roundtrip_any_length() {
    check("fft_roundtrip_any_length", 64, |g| {
        let n = g.int(1, 80);
        let data = cvec(g, n);
        let plan = Fft::new(n);
        let mut y = data.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        for (got, want) in y.iter().zip(&data) {
            assert!(got.approx_eq(*want, 1e-6));
        }
    });
}

#[test]
fn fft_matches_naive_dft() {
    check("fft_matches_naive_dft", 64, |g| {
        let n = g.int(2, 48);
        let data = cvec(g, n);
        let mut y = data.clone();
        Fft::new(n).forward(&mut y);
        let want = dft_naive(&data, Direction::Forward);
        for (got, want) in y.iter().zip(&want) {
            assert!(got.approx_eq(*want, 1e-5), "{got:?} vs {want:?}");
        }
    });
}

#[test]
fn fft_scratch_path_matches_plain_path_bitwise() {
    // The tentpole contract: the steady-state (scratch-reusing) entry
    // points must be *bit-identical* to the plain ones, for both
    // power-of-two and Bluestein lengths.
    check("fft_scratch_path_matches_plain_path_bitwise", 48, |g| {
        let n = g.int(2, 80);
        let data = cvec(g, n);
        let plan = Fft::new(n);
        let mut scratch = FftScratch::new();
        for dir in [Direction::Forward, Direction::Inverse] {
            let mut plain = data.clone();
            plan.run(&mut plain, dir);
            let mut fast = data.clone();
            plan.run_with_scratch(&mut fast, dir, &mut scratch);
            for (a, b) in plain.iter().zip(&fast) {
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "n={n} dir={dir:?}: {a:?} != {b:?}"
                );
            }
        }
    });
}

#[test]
fn fft_batched_lanes_match_per_lane_calls_bitwise() {
    check("fft_batched_lanes_match_per_lane_calls_bitwise", 48, |g| {
        let n = g.int(2, 40);
        let lanes = g.int(1, 6);
        let data = cvec(g, n * lanes);
        let plan = Fft::new(n);
        let mut scratch = FftScratch::new();
        let mut batched = data.clone();
        plan.forward_lanes(&mut batched, &mut scratch);
        let mut by_lane = data;
        for lane in by_lane.chunks_exact_mut(n) {
            plan.forward_with_scratch(lane, &mut scratch);
        }
        for (a, b) in batched.iter().zip(&by_lane) {
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "n={n} lanes={lanes}: {a:?} != {b:?}"
            );
        }
    });
}

#[test]
fn fft_parseval() {
    check("fft_parseval", 64, |g| {
        let data = cvec(g, 64);
        let mut y = data.clone();
        Fft::new(64).forward(&mut y);
        let ex: f64 = data.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / 64.0;
        assert!((ex - ey).abs() <= 1e-7 * ex.max(1.0));
    });
}

#[test]
fn fft_shift_theorem() {
    check("fft_shift_theorem", 64, |g| {
        // Circular shift by s multiplies spectrum by e^{-2 pi i k s / n}.
        let n = 32usize;
        let s = 5usize;
        let data = cvec(g, n);
        let shifted: Vec<Cx> = (0..n).map(|k| data[(k + n - s) % n]).collect();
        let plan = Fft::new(n);
        let mut fd = data.clone();
        let mut fs = shifted;
        plan.forward(&mut fd);
        plan.forward(&mut fs);
        for k in 0..n {
            let phase = Cx::cis(-2.0 * std::f64::consts::PI * (k * s) as f64 / n as f64);
            assert!(fs[k].approx_eq(fd[k] * phase, 1e-6));
        }
    });
}

#[test]
fn qr_preserves_gram_matrix() {
    check("qr_preserves_gram_matrix", 48, |g| {
        let a = cmat(g, 24, 6);
        let r = qr_r(&a);
        assert!(is_upper_triangular(&r, 1e-9));
        let ga = a.hermitian_matmul(&a);
        let gr = r.hermitian_matmul(&r);
        let scale = ga.fro_norm().max(1.0);
        assert!(ga.max_abs_diff(&gr) < 1e-8 * scale);
    });
}

#[test]
fn qr_update_equals_refactorization() {
    check("qr_update_equals_refactorization", 48, |g| {
        let top = cmat(g, 20, 5);
        let extra = cmat(g, 8, 5);
        let r_old = qr_r(&top);
        let fast = qr_update(&r_old, 0.7, &extra);
        let slow = qr_r(&r_old.scale(0.7).vstack(&extra));
        let gf = fast.hermitian_matmul(&fast);
        let gs = slow.hermitian_matmul(&slow);
        let scale = gs.fro_norm().max(1.0);
        assert!(gf.max_abs_diff(&gs) < 1e-8 * scale);
    });
}

#[test]
fn back_substitution_solves_triangular_systems() {
    check("back_substitution_solves_triangular_systems", 64, |g| {
        let a = cmat(g, 20, 6);
        let x = cmat(g, 6, 2);
        let r = qr_r(&a);
        // Skip near-singular draws: smallest diagonal must be meaningful.
        let min_diag = (0..6).map(|i| r[(i, i)].abs()).fold(f64::MAX, f64::min);
        if min_diag <= 1e-3 * r.fro_norm() {
            return;
        }
        let b = r.matmul(&x);
        let got = back_substitute(&r, &b);
        let scale = x.fro_norm().max(1.0);
        assert!(got.max_abs_diff(&x) < 1e-6 * scale);
    });
}

#[test]
fn lstsq_residual_orthogonal() {
    check("lstsq_residual_orthogonal", 64, |g| {
        let a = cmat(g, 24, 4);
        let b = cmat(g, 24, 1);
        let r = qr_r(&a);
        let min_diag = (0..4).map(|i| r[(i, i)].abs()).fold(f64::MAX, f64::min);
        if min_diag <= 1e-3 * r.fro_norm().max(1e-9) {
            return;
        }
        let x = lstsq(&a, &b);
        let resid = a.matmul(&x).sub(&b);
        let ortho = a.hermitian_matmul(&resid);
        let scale = a.fro_norm() * b.fro_norm();
        assert!(ortho.fro_norm() < 1e-7 * scale.max(1.0));
    });
}

#[test]
fn matmul_distributes_over_addition() {
    check("matmul_distributes_over_addition", 64, |g| {
        let a = cmat(g, 5, 4);
        let b = cmat(g, 4, 3);
        let c = cmat(g, 4, 3);
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        let scale = left.fro_norm().max(1.0);
        assert!(left.max_abs_diff(&right) < 1e-8 * scale);
    });
}

fn assert_bitwise_eq(got: &CMat, want: &CMat, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
        assert!(
            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
            "{what}: {a:?} != {b:?}"
        );
    }
}

/// The tentpole contract: the split-complex (SoA) packed engine must be
/// *bit-identical* to the naive interleaved kernel — the planar MAC
/// expansion and k-ascending accumulation reproduce the exact IEEE
/// operation order. Shapes cover tall, wide, non-square, and
/// single-row/column cases.
#[test]
fn gemm_planar_matches_interleaved_bitwise() {
    check("gemm_planar_matches_interleaved_bitwise", 48, |g| {
        let m = g.int(1, 13);
        let k = g.int(1, 13);
        let n = g.int(1, 27); // crosses the NR=8 strip boundary
        let a = cmat(g, m, k);
        let b = cmat(g, k, n);
        let mut want = CMat::zeros(m, n);
        matmul_interleaved_into(&a, &b, &mut want);
        let mut got = CMat::zeros(m, n);
        let mut ws = GemmScratch::new();
        matmul_planar_into(&a, &b, &mut got, &mut ws);
        assert_bitwise_eq(&got, &want, &format!("A({m}x{k}) B({k}x{n})"));
    });
}

/// Same contract for the adjoint product `A^H B` — the conjugation is
/// folded into the pack (negated imaginary plane), which must still be
/// exact.
#[test]
fn hermitian_gemm_planar_matches_interleaved_bitwise() {
    check(
        "hermitian_gemm_planar_matches_interleaved_bitwise",
        48,
        |g| {
            let m = g.int(1, 13);
            let k = g.int(1, 13);
            let n = g.int(1, 27);
            let a = cmat(g, k, m); // A^H B: a is k x m
            let b = cmat(g, k, n);
            let mut want = CMat::zeros(m, n);
            hermitian_matmul_interleaved_into(&a, &b, &mut want);
            let mut got = CMat::zeros(m, n);
            let mut ws = GemmScratch::new();
            hermitian_matmul_planar_into(&a, &b, &mut got, &mut ws);
            assert_bitwise_eq(&got, &want, &format!("A^H({m}x{k}) B({k}x{n})"));
        },
    );
}

/// The strided store is the compact product, bit for bit, written into
/// a window of a wider array whose other elements stay untouched — a
/// hard segment's `M x len` result inside a wire block's `[M][K]` plane.
#[test]
fn gemm_strided_output_matches_compact_bitwise() {
    check("gemm_strided_output_matches_compact_bitwise", 48, |g| {
        let m = g.int(1, 8);
        let k = g.int(1, 13);
        let n = g.int(1, 27);
        let (c0, pad) = (g.int(0, 9), g.int(0, 9));
        let ld = c0 + n + pad;
        let (mut a, mut b) = (PlanarMat::new(), PlanarMat::new());
        a.pack_from(&cmat(g, m, k));
        b.pack_from(&cmat(g, k, n));
        let mut want = CMat::zeros(m, n);
        gemm_planar_into(&a, &b, &mut want);
        let filler = Cx::new(f64::NAN, 7.0);
        let mut wide = vec![filler; m * ld];
        gemm_planar_into_strided(&a, &b, &mut wide[c0..], ld);
        for (i, row) in wide.chunks_exact(ld).enumerate() {
            for (j, v) in row.iter().enumerate() {
                let expect = if (c0..c0 + n).contains(&j) {
                    want[(i, j - c0)]
                } else {
                    filler
                };
                assert_eq!(
                    (v.re.to_bits(), v.im.to_bits()),
                    (expect.re.to_bits(), expect.im.to_bits()),
                    "({i}, {j}) of {m}x{n} at column {c0}, ld {ld}"
                );
            }
        }
    });
}

/// `CMat::matmul_into` dispatches on problem size (small problems use
/// the interleaved kernel, large ones the packed engine). Both sides of
/// the cutoff must agree bitwise, so the dispatch boundary is invisible
/// to callers.
#[test]
fn matmul_dispatch_is_bitwise_stable_across_cutoff() {
    check("matmul_dispatch_is_bitwise_stable_across_cutoff", 24, |g| {
        // m*k*n straddles GEMM_CUTOFF = 4096: 16*16*n with n in 14..=18.
        let m = 16;
        let k = 16;
        let n = g.int(14, 19);
        assert!((m * k * 14 < GEMM_CUTOFF) && (m * k * 18 >= GEMM_CUTOFF));
        let a = cmat(g, m, k);
        let b = cmat(g, k, n);
        let mut want = CMat::zeros(m, n);
        matmul_interleaved_into(&a, &b, &mut want);
        let mut got = CMat::zeros(m, n);
        a.matmul_into(&b, &mut got);
        assert_bitwise_eq(&got, &want, &format!("dispatch {m}x{k}x{n}"));

        let ah = cmat(g, k, m);
        let mut wanth = CMat::zeros(m, n);
        hermitian_matmul_interleaved_into(&ah, &b, &mut wanth);
        let mut goth = CMat::zeros(m, n);
        ah.hermitian_matmul_into(&b, &mut goth);
        assert_bitwise_eq(&goth, &wanth, &format!("adjoint dispatch {m}x{k}x{n}"));
    });
}

/// The planar scratch-based recursive QR update must match the
/// allocating wrapper bitwise for arbitrary augmented shapes.
#[test]
fn qr_update_with_matches_wrapper_bitwise() {
    check("qr_update_with_matches_wrapper_bitwise", 32, |g| {
        let n = g.int(1, 7);
        let extra_cols = g.int(0, 4);
        let s = g.int(1, 9);
        let top = cmat(g, n + 4, n);
        let mut r_old = qr_r(&top);
        // Augment with extra right-hand-side columns.
        if extra_cols > 0 {
            r_old = CMat::from_fn(
                n,
                n + extra_cols,
                |i, j| {
                    if j < n {
                        r_old[(i, j)]
                    } else {
                        cx(g)
                    }
                },
            );
        }
        let new_rows = cmat(g, s, n + extra_cols);
        let want = qr_update(&r_old, 0.85, &new_rows);
        let mut got = CMat::zeros(0, 0);
        qr_update_with(&r_old, 0.85, &new_rows, &mut got, &mut QrScratch::new());
        assert_bitwise_eq(&got, &want, &format!("qr_update n={n}+{extra_cols} s={s}"));
    });
}

/// Bitwise equality where the scalar kernel produced numbers; where it
/// produced a NaN the lane kernel must too (which payload survives a
/// NaN-with-NaN operation depends on operand order, which the compiler
/// is free to pick differently for scalar and vector instructions).
fn assert_same_bits_or_both_nan(got: &CMat, want: &CMat, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
    for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
        assert!(
            same(a.re, b.re) && same(a.im, b.im),
            "{what}: {a:?} != {b:?}"
        );
    }
}

/// One lane's `(r_old, new_rows)` for the lane-kernel properties: an
/// ordinary problem or one that drives the scalar kernel down a rare
/// branch (`norm == 0`, `|d| == 0`) at some or every column.
fn lane_problem(g: &mut Gen, n: usize, extra_cols: usize, s: usize) -> (CMat, CMat) {
    let cols = n + extra_cols;
    let upper = qr_r(&cmat(g, n + 4, n));
    let mut r_old = CMat::from_fn(n, cols, |i, j| if j < n { upper[(i, j)] } else { cx(g) });
    let mut rows = cmat(g, s, cols);
    match g.int(0, 7) {
        // First sight of a (beam, bin, segment): R is all zeros, so
        // every column takes the `|d| == 0` phase branch.
        0 => r_old = CMat::zeros(n, cols),
        // Nothing at all: every column is skipped at `norm == 0`.
        1 => {
            r_old = CMat::zeros(n, cols);
            rows = CMat::zeros(s, cols);
        }
        // One column of zeros through both blocks: skipped there only.
        2 => {
            let k = g.int(0, n);
            for i in 0..n {
                r_old[(i, k)] = Cx::new(0.0, 0.0);
            }
            for i in 0..s {
                rows[(i, k)] = Cx::new(0.0, 0.0);
            }
        }
        // A zero on the diagonal under live new rows.
        3 => {
            let k = g.int(0, n);
            r_old[(k, k)] = Cx::new(0.0, 0.0);
        }
        // Magnitudes whose squares underflow: `norm == 0` over data
        // that is not zero.
        4 => {
            r_old = r_old.scale(1e-170);
            rows = rows.scale(1e-170);
        }
        _ => {}
    }
    (r_old, rows)
}

/// Lanes `live..` of a lane operand are padding: a copy of lane 0.
fn padded<T: Clone>(mut live: Vec<T>) -> [T; LANES] {
    let first = live[0].clone();
    live.resize(LANES, first);
    live.try_into().ok().expect("at most LANES live lanes")
}

/// The tentpole contract of the lane kernels: lane `l` of
/// `qr_update_lanes` is `qr_update_with` on lane `l`'s operands, bit for
/// bit, whatever its neighbours are doing — including neighbours (or
/// itself) on the scalar kernel's rare branches — and the flop count is
/// the sum of the live lanes' scalar counts.
#[test]
fn qr_update_lanes_match_scalar_per_lane_bitwise() {
    check("qr_update_lanes_match_scalar_per_lane_bitwise", 96, |g| {
        let n = g.int(1, 9);
        let extra_cols = g.int(0, 4);
        let s = g.int(0, 10);
        let forget = if g.bool(0.2) { 1.0 } else { g.float(0.3, 1.0) };
        let live = g.int(1, LANES + 1);
        let problems = padded(g.vec(live, |g| lane_problem(g, n, extra_cols, s)));

        let mut r = LaneMat::zeros(n, n + extra_cols);
        let mut xt = LaneMat::zeros(n + extra_cols, s);
        let conj: Vec<CMat> = problems.iter().map(|(_, rows)| rows.conj()).collect();
        for (l, (r_old, _)) in problems.iter().enumerate() {
            r.set_lane(l, r_old);
        }
        xt.fill_cols_conj(0, std::array::from_fn(|l| conj[l].as_slice()));
        let ((), lane_flops) = flops::count(|| qr_update_lanes(&mut r, forget, &mut xt, live));

        let mut scalar_flops = 0;
        for (l, (r_old, rows)) in problems.iter().enumerate().take(live) {
            let mut want = CMat::zeros(0, 0);
            let ((), f) = flops::count(|| {
                qr_update_with(r_old, forget, rows, &mut want, &mut QrScratch::new())
            });
            scalar_flops += f;
            let what = format!("lane {l}/{live} n={n}+{extra_cols} s={s} forget={forget}");
            assert_same_bits_or_both_nan(&r.lane(l), &want, &what);
        }
        assert_eq!(lane_flops, scalar_flops, "flop count, {live} live lanes");
    });
}

/// Same contract for the bordered constrained solve, from factors that
/// are ordinary, rank deficient (not enough training yet: the solve
/// skips columns and divides by zero) or all zeros, with one to four
/// live lanes in any position.
#[test]
fn constrained_lstsq_lanes_match_scalar_per_lane_bitwise() {
    check(
        "constrained_lstsq_lanes_match_scalar_per_lane_bitwise",
        96,
        |g| {
            let n = g.int(2, 10);
            let crows = g.int(1, n + 1);
            let sc = g.int(1, 6);
            let steering = cmat(g, crows, sc).scale(0.01);
            let live = g.int(1, LANES + 1);
            let lanes = padded(g.vec(live, |g| {
                // The factor a recursion would hold after one update.
                let s = g.int(1, 2 * n);
                let (r_old, rows) = lane_problem(g, n, 0, s);
                let mut r = CMat::zeros(0, 0);
                qr_update_with(&r_old, 0.6, &rows, &mut r, &mut QrScratch::new());
                let k = if g.bool(0.1) {
                    1e-12
                } else {
                    g.float(0.01, 50.0)
                };
                (r, cmat(g, crows, n).scale(0.01), k)
            }));
            // Live lanes need not be the leading ones.
            let mut dead = [false; LANES];
            for _ in live..LANES {
                let free: Vec<usize> = (0..LANES).filter(|&l| !dead[l]).collect();
                dead[g.choose(&free)] = true;
            }

            let mut r = LaneMat::zeros(n, n);
            for (l, (factor, _, _)) in lanes.iter().enumerate() {
                r.set_lane(l, factor);
            }
            let mut got: [CMat; LANES] = std::array::from_fn(|_| CMat::zeros(0, 0));
            let mut it = got.iter_mut();
            let out = std::array::from_fn(|l| {
                let o = it.next();
                if dead[l] {
                    None
                } else {
                    o
                }
            });
            let ((), lane_flops) = flops::count(|| {
                constrained_lstsq_from_r_lanes(
                    &r,
                    std::array::from_fn(|l| &lanes[l].1),
                    std::array::from_fn(|l| lanes[l].2),
                    &steering,
                    out,
                    &mut LaneSolveScratch::new(),
                )
            });

            let mut scalar_flops = 0;
            for (l, (factor, constraint, k)) in lanes.iter().enumerate() {
                if dead[l] {
                    assert_eq!(got[l].shape(), (0, 0), "dead lane {l} was written");
                    continue;
                }
                let mut want = CMat::zeros(0, 0);
                let ((), f) = flops::count(|| {
                    constrained_lstsq_from_r_with(
                        factor,
                        constraint,
                        *k,
                        &steering,
                        &mut want,
                        &mut SolveScratch::new(),
                    )
                });
                scalar_flops += f;
                let what = format!("lane {l} (dead {dead:?}) n={n} crows={crows} sc={sc}");
                assert_same_bits_or_both_nan(&got[l], &want, &what);
            }
            assert_eq!(lane_flops, scalar_flops, "flop count, dead {dead:?}");
        },
    );
}

/// One lane's stacked training rows (`rows x n`) for the dense lane
/// solve: ordinary, or driving `householder_inplace` down a rare branch
/// at some or every column.
fn dense_lane_problem(g: &mut Gen, rows: usize, n: usize) -> CMat {
    let mut data = cmat(g, rows, n);
    match g.int(0, 8) {
        // No training signal at all: only the constraint rows are left.
        0 => data = CMat::zeros(rows, n),
        // Conjugated zeros, as the pack of an all-zero wire block holds.
        1 => data = CMat::zeros(rows, n).conj(),
        // A column of zeros (of either sign, a packed wire block's are
        // conjugated): `norm == 0` there unless the constraint block has
        // something in it.
        2 => {
            let k = g.int(0, n);
            let zero = Cx::new(0.0, if g.bool(0.5) { -0.0 } else { 0.0 });
            for i in 0..rows {
                data[(i, k)] = zero;
            }
        }
        // Zero leading rows: `|d| == 0` on the diagonals they hold.
        3 => {
            for i in 0..g.int(0, rows + 1) {
                for j in 0..n {
                    data[(i, j)] = Cx::new(0.0, 0.0);
                }
            }
        }
        // Magnitudes whose squares underflow, to zero or to subnormals.
        4 => data = data.scale(1e-170),
        5 => data = data.scale(1e-163),
        _ => {}
    }
    data
}

/// The dense lane solve against the scalar `constrained_lstsq`: lane `l`
/// is the scalar kernel on lane `l`'s operands, bit for bit, with the
/// training rows arriving in one to three blocks, one to four live lanes
/// in any position, and ordinary lanes next to ones on the scalar
/// kernel's rare branches; flop counts are equal.
#[test]
fn dense_constrained_lstsq_lanes_match_scalar_per_lane_bitwise() {
    check(
        "dense_constrained_lstsq_lanes_match_scalar_per_lane_bitwise",
        96,
        |g| {
            let n = g.int(1, 10);
            let crows = g.int(1, n + 1);
            let sc = g.int(1, 6);
            // `m >= n` overall: the constraint rows count.
            let count = g.int(1, 4);
            let mut blocks: Vec<usize> = g.vec(count, |g| g.int(0, 2 * n));
            blocks[0] += n - crows;
            let rows: usize = blocks.iter().sum();
            let steering = cmat(g, crows, sc).scale(0.01);
            let constraint = if crows == n && g.bool(0.5) {
                CMat::identity(n)
            } else {
                cmat(g, crows, n).scale(0.01)
            };
            let live = g.int(1, LANES + 1);
            let lanes = padded(g.vec(live, |g| {
                let k = if g.bool(0.1) {
                    1e-12
                } else {
                    g.float(0.01, 50.0)
                };
                (dense_lane_problem(g, rows, n), k)
            }));
            let mut dead = [false; LANES];
            for _ in live..LANES {
                let free: Vec<usize> = (0..LANES).filter(|&l| !dead[l]).collect();
                dead[g.choose(&free)] = true;
            }

            // Each block of rows, transposed into lane layout.
            let mut at = 0;
            let data: Vec<LaneMat> = blocks
                .iter()
                .map(|&b| {
                    let conj: Vec<CMat> = lanes
                        .iter()
                        .map(|(d, _)| d.rows_range(at, at + b).conj())
                        .collect();
                    at += b;
                    let mut xt = LaneMat::zeros(n, b);
                    xt.fill_cols_conj(0, std::array::from_fn(|l| conj[l].as_slice()));
                    xt
                })
                .collect();
            let mut got: [CMat; LANES] = std::array::from_fn(|_| CMat::zeros(0, 0));
            let mut it = got.iter_mut();
            let out = std::array::from_fn(|l| {
                let o = it.next();
                if dead[l] {
                    None
                } else {
                    o
                }
            });
            let ((), lane_flops) = flops::count(|| {
                constrained_lstsq_lanes(
                    data.iter(),
                    &constraint,
                    std::array::from_fn(|l| lanes[l].1),
                    &steering,
                    out,
                    &mut LaneSolveScratch::new(),
                )
            });

            let mut scalar_flops = 0;
            for (l, (stacked, k)) in lanes.iter().enumerate() {
                if dead[l] {
                    assert_eq!(got[l].shape(), (0, 0), "dead lane {l} was written");
                    continue;
                }
                let (want, f) =
                    flops::count(|| constrained_lstsq(stacked, &constraint, *k, &steering));
                scalar_flops += f;
                let what = format!(
                    "lane {l} (dead {dead:?}) n={n} blocks={blocks:?} crows={crows} sc={sc}"
                );
                assert_same_bits_or_both_nan(&got[l], &want, &what);
            }
            assert_eq!(lane_flops, scalar_flops, "flop count, dead {dead:?}");
        },
    );
}

#[test]
fn hermitian_reverses_products() {
    check("hermitian_reverses_products", 64, |g| {
        let a = cmat(g, 4, 5);
        let b = cmat(g, 5, 3);
        let left = a.matmul(&b).hermitian();
        let right = b.hermitian().matmul(&a.hermitian());
        let scale = left.fro_norm().max(1.0);
        assert!(left.max_abs_diff(&right) < 1e-8 * scale);
    });
}
