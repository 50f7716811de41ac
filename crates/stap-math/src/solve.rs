//! Triangular solves and (constrained) least squares.
//!
//! The adaptive weight problem in the paper (Appendix A) is the least
//! squares system `M w = rhs` where `M` stacks clutter training snapshots
//! on top of a scaled identity block (the mainbeam constraint) and `rhs`
//! is zero except for the constraint rows, which hold the steering vector.
//! [`constrained_lstsq`] implements exactly that formulation; the easy and
//! hard weight tasks in `stap-core` build their specific `M` blocks and
//! call into here.

use crate::complex::{Cx, ZERO};
use crate::flops;
use crate::mat::CMat;
use crate::qr::{
    annihilate_lanes, householder_lanes, qr_update_with, qr_with_rhs, Lane, LaneMat, QrScratch,
    LANES,
};

/// Solves `R X = B` for upper-triangular `R` (multiple right-hand sides).
///
/// Panics when `R` is not square or the shapes disagree. Singular diagonal
/// entries propagate non-finite values rather than panicking (callers
/// check `is_finite` where it matters).
pub fn back_substitute(r: &CMat, b: &CMat) -> CMat {
    let n = r.rows();
    assert_eq!(r.cols(), n, "R must be square");
    assert_eq!(b.rows(), n, "rhs rows must match R");
    let mut x = b.clone();
    for j in 0..b.cols() {
        for i in (0..n).rev() {
            let mut acc = x[(i, j)];
            for k in i + 1..n {
                acc -= r[(i, k)] * x[(k, j)];
            }
            x[(i, j)] = acc / r[(i, i)];
        }
    }
    flops::add((b.cols() * n * n) as u64 * flops::CMAC / 2 + (b.cols() * n) as u64 * 7);
    x
}

/// Ordinary least squares `argmin_X ||A X - B||_F` via Householder QR.
pub fn lstsq(a: &CMat, b: &CMat) -> CMat {
    let (r, qtb) = qr_with_rhs(a, b);
    back_substitute(&r, &qtb)
}

/// Beam-constrained least squares (paper Fig. 13).
///
/// Solves `[data; k C] w = [0; k s]` for each steering column `s` of
/// `steering`, where `C` is the constraint matrix (often an identity or a
/// stagger-phase-paired identity) and `k` the beam-constraint weight. The
/// result columns are normalized to unit length, matching the MATLAB
/// reference (`wts / sqrt(wts' * wts)`).
pub fn constrained_lstsq(data: &CMat, constraint: &CMat, k: f64, steering: &CMat) -> CMat {
    assert_eq!(constraint.cols(), data.cols(), "constraint column mismatch");
    assert_eq!(
        steering.rows(),
        constraint.rows(),
        "steering rows must match constraint rows"
    );
    let stacked = data.vstack(&constraint.scale(k));
    let mut rhs = CMat::zeros(stacked.rows(), steering.cols());
    for i in 0..constraint.rows() {
        for j in 0..steering.cols() {
            rhs[(data.rows() + i, j)] = steering[(i, j)].scale(k);
        }
    }
    let w = lstsq(&stacked, &rhs);
    normalize_columns(w)
}

/// Persistent scratch for [`constrained_lstsq_from_r_with`]: the bordered
/// system, its triangular/constraint split, the updated factor, and the
/// QR-update scratch. Grow-only, so the steady-state hard-weight path
/// performs zero heap allocations.
pub struct SolveScratch {
    bordered: CMat,
    top: CMat,
    bottom: CMat,
    rr: CMat,
    qr: QrScratch,
}

impl SolveScratch {
    /// Empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        SolveScratch {
            bordered: CMat::zeros(0, 0),
            top: CMat::zeros(0, 0),
            bottom: CMat::zeros(0, 0),
            rr: CMat::zeros(0, 0),
            qr: QrScratch::new(),
        }
    }
}

impl Default for SolveScratch {
    fn default() -> Self {
        SolveScratch::new()
    }
}

/// Beam-constrained least squares starting from a precomputed triangular
/// factor `R` of the training data (the recursive hard-bin path): solves
/// `[R; k C] w = [0; k s]`, writing the normalized weights into `out`
/// (resized grow-only) using the caller's scratch.
///
/// `R` already summarizes the training snapshots, so only the constraint
/// rows need annihilating — the [`crate::qr::qr_update`] structure makes this cheap.
pub fn constrained_lstsq_from_r_with(
    r: &CMat,
    constraint: &CMat,
    k: f64,
    steering: &CMat,
    out: &mut CMat,
    ws: &mut SolveScratch,
) {
    let n = r.cols();
    assert_eq!(constraint.cols(), n, "constraint column mismatch");
    assert_eq!(
        steering.rows(),
        constraint.rows(),
        "steering rows must match constraint rows"
    );
    let sc = steering.cols();
    // Annihilate the constraint block against R, tracking the rhs through
    // the same reflections: factor the bordered system
    //   [R  0 ] -> updated R and transformed rhs.
    //   [kC ks]
    let brows = r.rows() + constraint.rows();
    let bcols = n + sc;
    ws.bordered.resize(brows, bcols);
    ws.bordered.as_mut_slice().fill(ZERO);
    for i in 0..r.rows() {
        for j in 0..n {
            ws.bordered[(i, j)] = r[(i, j)];
        }
    }
    for i in 0..constraint.rows() {
        for j in 0..n {
            ws.bordered[(r.rows() + i, j)] = constraint[(i, j)].scale(k);
        }
        for j in 0..sc {
            ws.bordered[(r.rows() + i, n + j)] = steering[(i, j)].scale(k);
        }
    }
    // The leading n x n block is triangular: use the structured update on
    // the extended matrix.
    ws.top.resize(n, bcols);
    ws.top
        .as_mut_slice()
        .copy_from_slice(&ws.bordered.as_slice()[..n * bcols]);
    ws.bottom.resize(brows - n, bcols);
    ws.bottom
        .as_mut_slice()
        .copy_from_slice(&ws.bordered.as_slice()[n * bcols..brows * bcols]);
    qr_update_with(&ws.top, 1.0, &ws.bottom, &mut ws.rr, &mut ws.qr);
    // Back-substitute straight out of the bordered factor: columns
    // `n..n+sc` of `rr` are `Q^H rhs`, its leading block the new `R`.
    out.resize(n, sc);
    let rr = &ws.rr;
    for j in 0..sc {
        for i in (0..n).rev() {
            let mut acc = rr[(i, n + j)];
            for kk in i + 1..n {
                acc -= rr[(i, kk)] * out[(kk, j)];
            }
            out[(i, j)] = acc / rr[(i, i)];
        }
    }
    flops::add((sc * n * n) as u64 * flops::CMAC / 2 + (sc * n) as u64 * 7);
    normalize_columns_in_place(out);
}

/// Persistent scratch for the lane solves: the bordered factor `top`,
/// the transposed block the reflectors annihilate (the constraint rows
/// of [`constrained_lstsq_from_r_lanes`], the whole stacked system of
/// [`constrained_lstsq_lanes`]) and the back-substituted weights, all
/// in lane layout. Grow-only.
#[derive(Default)]
pub struct LaneSolveScratch {
    top: LaneMat,
    xt: LaneMat,
    w: LaneMat,
}

impl LaneSolveScratch {
    /// Empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        LaneSolveScratch::default()
    }

    /// Sizes the scratch for [`constrained_lstsq_lanes`] systems of up to
    /// `rows` stacked rows (training and constraint), `n` unknowns and
    /// `sc` right-hand sides, so that a caller whose training history is
    /// still filling up does not grow it CPI by CPI.
    pub fn reserve_dense(&mut self, rows: usize, n: usize, sc: usize) {
        self.xt.resize(n + sc, rows);
    }
}

/// Lane form of [`constrained_lstsq_from_r_with`]: lane `l` solves
/// `[R_l; k_l C_l] w = [0; k_l s]` from its own triangular factor
/// (`r`, square), constraint and constraint weight against the shared
/// `steering`, and writes its normalized weights into `out[l]` (resized
/// grow-only). Each lane runs exactly the scalar kernel's IEEE operation
/// sequence — bordered structured update, back-substitution, column
/// normalisation — so `out[l]` equals the scalar result bit for bit.
///
/// A lane whose `out` is `None` is padding: give it any benign operands
/// (a copy of a live lane's); nothing is written for it and it is left
/// out of the flop count.
pub fn constrained_lstsq_from_r_lanes(
    r: &LaneMat,
    constraints: [&CMat; LANES],
    k: Lane,
    steering: &CMat,
    out: [Option<&mut CMat>; LANES],
    ws: &mut LaneSolveScratch,
) {
    let (n, rcols) = r.shape();
    assert_eq!(rcols, n, "R must be square");
    let (crows, sc) = steering.shape();
    for c in constraints {
        assert_eq!(c.shape(), (crows, n), "constraint shape mismatch");
    }
    let live_lanes: [bool; LANES] = std::array::from_fn(|l| out[l].is_some());
    let live = live_lanes.iter().filter(|&&on| on).count() as u64;
    let bcols = n + sc;
    // Top of the bordered system, `[R 0]`: only the upper triangle and
    // the right-hand-side columns are ever read.
    ws.top.resize(n, bcols);
    {
        let (rr, ri) = r.planes();
        let (tr, ti) = ws.top.planes_mut();
        for i in 0..n {
            tr[i * bcols + i..i * bcols + n].copy_from_slice(&rr[i * n + i..(i + 1) * n]);
            ti[i * bcols + i..i * bcols + n].copy_from_slice(&ri[i * n + i..(i + 1) * n]);
            tr[i * bcols + n..(i + 1) * bcols].fill([0.0; LANES]);
            ti[i * bcols + n..(i + 1) * bcols].fill([0.0; LANES]);
        }
    }
    // Bottom, `[kC ks]`, transposed for the structured update.
    ws.xt.resize(bcols, crows);
    fill_constraint_rows(&mut ws.xt, 0, constraints, k, steering);
    // The scalar solve runs its update with forget = 1.0, an exact
    // identity that still counts its flops.
    flops::add(live * 2 * (n * n) as u64);
    annihilate_lanes(&mut ws.top, &mut ws.xt, live_lanes);

    solve_bordered_lanes(&ws.top, n, &mut ws.w, out);
}

/// Lane form of [`constrained_lstsq`]: lane `l` solves
/// `[data_l; k_l C] w = [0; k_l s]` by a dense Householder reduction of
/// the stacked system, where the lanes' training rows arrive as `data`
/// — consecutive row blocks, each **transposed** (`n x rows` with `n`
/// the column count of `constraint`, see [`LaneMat::fill_cols_conj`]) —
/// and every lane has the same number of them. `out[l]` receives the
/// normalized weights (resized grow-only) and equals the scalar result
/// for that lane's operands bit for bit; flop counts match too.
///
/// A lane whose `out` is `None` is padding: give it any benign operands
/// (a copy of a live lane's); nothing is written for it and it is left
/// out of the flop count.
pub fn constrained_lstsq_lanes<'a>(
    data: impl Iterator<Item = &'a LaneMat> + Clone,
    constraint: &CMat,
    k: Lane,
    steering: &CMat,
    out: [Option<&mut CMat>; LANES],
    ws: &mut LaneSolveScratch,
) {
    let (crows, n) = constraint.shape();
    let sc = steering.cols();
    assert_eq!(
        steering.rows(),
        crows,
        "steering rows must match constraint rows"
    );
    let drows: usize = data.clone().map(|d| d.shape().1).sum();
    let m = drows + crows;
    // The stacked system and its right-hand side, transposed: row `j` is
    // column `j` of `[data; kC]`, row `n + j` column `j` of `[0; ks]`.
    ws.xt.resize(n + sc, m);
    let (xr, xi) = ws.xt.planes_mut();
    let mut at = 0;
    for d in data {
        let rows = d.shape().1;
        assert_eq!(d.shape().0, n, "training block column mismatch");
        let (dr, di) = d.planes();
        for j in 0..n {
            xr[j * m + at..][..rows].copy_from_slice(&dr[j * rows..(j + 1) * rows]);
            xi[j * m + at..][..rows].copy_from_slice(&di[j * rows..(j + 1) * rows]);
        }
        at += rows;
    }
    for j in 0..sc {
        xr[(n + j) * m..][..drows].fill([0.0; LANES]);
        xi[(n + j) * m..][..drows].fill([0.0; LANES]);
    }
    fill_constraint_rows(&mut ws.xt, drows, [constraint; LANES], k, steering);
    let live = std::array::from_fn(|l| out[l].is_some());
    householder_lanes(&mut ws.xt, n, &mut ws.top, live);
    solve_bordered_lanes(&ws.top, n, &mut ws.w, out);
}

/// Writes the constraint rows `[k_l C_l | k_l s]` of a stacked system
/// held transposed in `xt` (row `j` is column `j` of the system, the
/// right-hand-side columns after the `n` unknowns') at system rows
/// `row0..`, lane by lane.
fn fill_constraint_rows(
    xt: &mut LaneMat,
    row0: usize,
    constraints: [&CMat; LANES],
    k: Lane,
    steering: &CMat,
) {
    let m = xt.shape().1;
    let (xr, xi) = xt.planes_mut();
    for i in 0..steering.rows() {
        for l in 0..LANES {
            let row = constraints[l].row(i).iter().chain(steering.row(i));
            for (j, v) in row.enumerate() {
                let v = v.scale(k[l]);
                (xr[j * m + row0 + i][l], xi[j * m + row0 + i][l]) = (v.re, v.im);
            }
        }
    }
}

/// Back-substitution and column normalisation out of a bordered factor
/// `[R | Q^H rhs]` (`n x (n + sc)` in `top`, upper triangle and
/// right-hand-side columns): lane `l`'s unit-length solutions land in
/// `out[l]` (resized grow-only to `n x sc`), computed by the IEEE
/// operation sequence of [`back_substitute`] and
/// [`normalize_columns_in_place`]. Lanes without an `out` are padding
/// and left out of the flop count.
fn solve_bordered_lanes(
    top: &LaneMat,
    n: usize,
    w: &mut LaneMat,
    mut out: [Option<&mut CMat>; LANES],
) {
    let bcols = top.shape().1;
    let sc = bcols - n;
    let live = out.iter().flatten().count() as u64;
    // A row at a time, two solutions abreast: each solution's chain over
    // `kk` ascends exactly as the scalar column-by-column loop's does.
    w.resize(n, sc);
    let (tr, ti) = top.planes();
    let (wr, wi) = w.planes_mut();
    for i in (0..n).rev() {
        let (trow, tirow) = (
            &tr[i * bcols..(i + 1) * bcols],
            &ti[i * bcols..(i + 1) * bcols],
        );
        let (wr_row, wr_done) = wr[i * sc..].split_at_mut(sc);
        let (wi_row, wi_done) = wi[i * sc..].split_at_mut(sc);
        let mut j = 0;
        while j + 2 <= sc {
            back_substitute_lanes::<2>(i, n, j, trow, tirow, wr_done, wi_done, wr_row, wi_row);
            j += 2;
        }
        if j < sc {
            back_substitute_lanes::<1>(i, n, j, trow, tirow, wr_done, wi_done, wr_row, wi_row);
        }
    }
    flops::add(live * ((sc * n * n) as u64 * flops::CMAC / 2 + (sc * n) as u64 * 7));

    // Normalize each solution to unit length on the way out of the lanes
    // (a lane whose norm is not positive keeps its column, as in
    // `normalize_columns_in_place`).
    for o in out.iter_mut().flatten() {
        o.resize(n, sc);
    }
    for j in 0..sc {
        let mut norm_sqr = [0.0; LANES];
        for i in 0..n {
            let (re, im) = (wr[i * sc + j], wi[i * sc + j]);
            for l in 0..LANES {
                norm_sqr[l] += re[l] * re[l] + im[l] * im[l];
            }
        }
        for (l, o) in out.iter_mut().enumerate() {
            let Some(o) = o else { continue };
            let norm = norm_sqr[l].sqrt();
            let scale = (norm > 0.0).then(|| 1.0 / norm);
            for i in 0..n {
                let v = Cx::new(wr[i * sc + j][l], wi[i * sc + j][l]);
                o[(i, j)] = scale.map_or(v, |inv| v.scale(inv));
            }
        }
    }
    flops::add(live * (n * sc) as u64 * 6);
}

/// Rows `i` of `JB` adjacent solutions (columns `j..j + JB`) of the lane
/// back-substitution: `x[i] = (rhs[i] - sum_{kk > i} t[i][kk] x[kk]) /
/// t[i][i]` with `trow`/`tirow` row `i` of the bordered factor and
/// `*_done` the solved rows `i + 1..n`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn back_substitute_lanes<const JB: usize>(
    i: usize,
    n: usize,
    j: usize,
    trow: &[Lane],
    tirow: &[Lane],
    wr_done: &[Lane],
    wi_done: &[Lane],
    wr_row: &mut [Lane],
    wi_row: &mut [Lane],
) {
    let sc = wr_row.len();
    let mut acc_r: [Lane; JB] = std::array::from_fn(|c| trow[n + j + c]);
    let mut acc_i: [Lane; JB] = std::array::from_fn(|c| tirow[n + j + c]);
    for kk in i + 1..n {
        let (pr, pi) = (trow[kk], tirow[kk]);
        let at = (kk - i - 1) * sc + j;
        for c in 0..JB {
            let (xr, xi) = (wr_done[at + c], wi_done[at + c]);
            for l in 0..LANES {
                acc_r[c][l] -= pr[l] * xr[l] - pi[l] * xi[l];
                acc_i[c][l] -= pr[l] * xi[l] + pi[l] * xr[l];
            }
        }
    }
    let (dr, di) = (trow[i], tirow[i]);
    for c in 0..JB {
        for l in 0..LANES {
            let d = dr[l] * dr[l] + di[l] * di[l];
            wr_row[j + c][l] = (acc_r[c][l] * dr[l] + acc_i[c][l] * di[l]) / d;
            wi_row[j + c][l] = (acc_i[c][l] * dr[l] - acc_r[c][l] * di[l]) / d;
        }
    }
}

/// Scales every column to unit Euclidean length (zero columns unchanged).
pub fn normalize_columns(mut w: CMat) -> CMat {
    normalize_columns_in_place(&mut w);
    w
}

/// In-place [`normalize_columns`] (the zero-alloc steady-state form).
pub fn normalize_columns_in_place(w: &mut CMat) {
    for j in 0..w.cols() {
        let norm = (0..w.rows())
            .map(|i| w[(i, j)].norm_sqr())
            .sum::<f64>()
            .sqrt();
        if norm > 0.0 {
            let inv = 1.0 / norm;
            for i in 0..w.rows() {
                w[(i, j)] = w[(i, j)].scale(inv);
            }
        }
    }
    flops::add((w.rows() * w.cols()) as u64 * 6);
}

/// Residual `||A X - B||_F`, a convenience for tests and diagnostics.
pub fn residual_norm(a: &CMat, x: &CMat, b: &CMat) -> f64 {
    a.matmul(x).sub(b).fro_norm()
}

/// Solves `R^H y = b` (forward substitution on the conjugate transpose),
/// needed when whitening snapshots against a Cholesky-like factor.
pub fn forward_substitute_hermitian(r: &CMat, b: &[Cx]) -> Vec<Cx> {
    let n = r.rows();
    assert_eq!(r.cols(), n, "R must be square");
    assert_eq!(b.len(), n, "rhs length must match R");
    let mut y = vec![ZERO; n];
    for i in 0..n {
        let mut acc = b[i];
        for k in 0..i {
            acc -= r[(k, i)].conj() * y[k];
        }
        y[i] = acc / r[(i, i)].conj();
    }
    flops::add((n * n) as u64 * flops::CMAC / 2 + n as u64 * 7);
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qr::qr_r;

    fn rng_mat(m: usize, n: usize, seed: u64) -> CMat {
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(99);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        CMat::from_fn(m, n, |_, _| Cx::new(next(), next()))
    }

    #[test]
    fn back_substitution_inverts_triangular_multiply() {
        let r = qr_r(&rng_mat(20, 6, 1));
        let x = rng_mat(6, 3, 2);
        let b = r.matmul(&x);
        let got = back_substitute(&r, &b);
        assert!(got.max_abs_diff(&x) < 1e-10);
    }

    #[test]
    fn lstsq_recovers_exact_solution() {
        let a = rng_mat(50, 8, 3);
        let x = rng_mat(8, 2, 4);
        let b = a.matmul(&x);
        let got = lstsq(&a, &b);
        assert!(got.max_abs_diff(&x) < 1e-9);
    }

    #[test]
    fn lstsq_residual_is_orthogonal_to_columns() {
        // For overdetermined inconsistent systems, A^H (Ax - b) = 0.
        let a = rng_mat(40, 5, 7);
        let b = rng_mat(40, 1, 8);
        let x = lstsq(&a, &b);
        let resid = a.matmul(&x).sub(&b);
        let ortho = a.hermitian_matmul(&resid);
        assert!(ortho.fro_norm() < 1e-9, "{}", ortho.fro_norm());
    }

    #[test]
    fn constrained_solution_is_unit_norm() {
        let data = rng_mat(64, 8, 5);
        let c = CMat::identity(8);
        let s = rng_mat(8, 3, 6);
        let w = constrained_lstsq(&data, &c, 0.5, &s);
        for j in 0..3 {
            let norm: f64 = (0..8).map(|i| w[(i, j)].norm_sqr()).sum();
            assert!((norm - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn large_constraint_weight_pins_solution_to_steering() {
        // As k -> infinity the constrained solution approaches the
        // (normalized) steering vector itself.
        let data = rng_mat(64, 6, 9);
        let c = CMat::identity(6);
        let s = rng_mat(6, 1, 10);
        let w = constrained_lstsq(&data, &c, 1e6, &s);
        let s_unit = normalize_columns(s);
        // Compare up to the global phase the normalization leaves free.
        let mut dot = ZERO;
        for i in 0..6 {
            dot += s_unit[(i, 0)].conj() * w[(i, 0)];
        }
        assert!((dot.abs() - 1.0).abs() < 1e-6, "|<s,w>| = {}", dot.abs());
    }

    #[test]
    fn small_constraint_weight_prioritizes_clutter_cancellation() {
        // Data with a dominant rank-1 interference direction: the adapted
        // weight must be (nearly) orthogonal to it when k is small.
        let n = 6;
        let interferer = rng_mat(1, n, 11);
        let mut data = CMat::zeros(60, n);
        let mut state = 17u64;
        for i in 0..60 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let g = Cx::new(
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5,
                ((state >> 13) as f64 % 1024.0) / 1024.0 - 0.5,
            );
            for j in 0..n {
                data[(i, j)] = interferer[(0, j)] * g.scale(30.0);
            }
        }
        let steering = CMat::from_fn(n, 1, |_, _| Cx::real(1.0 / (n as f64).sqrt()));
        let w = constrained_lstsq(&data, &CMat::identity(n), 0.05, &steering);
        let mut response = ZERO;
        for j in 0..n {
            response += interferer[(0, j)] * w[(j, 0)];
        }
        assert!(
            response.abs() < 1e-2,
            "clutter response should be nulled, got {}",
            response.abs()
        );
    }

    #[test]
    fn constrained_from_r_matches_full_solve() {
        let data = rng_mat(80, 8, 13);
        let r = qr_r(&data);
        let c = CMat::identity(8);
        let s = rng_mat(8, 2, 14);
        let full = constrained_lstsq(&data, &c, 0.5, &s);
        let mut fast = CMat::zeros(0, 0);
        constrained_lstsq_from_r_with(&r, &c, 0.5, &s, &mut fast, &mut SolveScratch::new());
        // Solutions may differ by a per-column unit phase; compare the
        // projector they define instead.
        for j in 0..2 {
            let mut dot = ZERO;
            for i in 0..8 {
                dot += full[(i, j)].conj() * fast[(i, j)];
            }
            assert!((dot.abs() - 1.0).abs() < 1e-8, "col {j}: {}", dot.abs());
        }
    }

    #[test]
    fn forward_substitute_hermitian_inverts() {
        let r = qr_r(&rng_mat(20, 5, 15));
        let y: Vec<Cx> = (0..5).map(|i| Cx::new(i as f64, -1.0)).collect();
        // b = R^H y
        let rh = r.hermitian();
        let b = rh.matvec(&y);
        let got = forward_substitute_hermitian(&r, &b);
        for i in 0..5 {
            assert!(got[i].approx_eq(y[i], 1e-10));
        }
    }

    #[test]
    fn normalize_handles_zero_columns() {
        let w = normalize_columns(CMat::zeros(4, 2));
        assert!(w.fro_norm() == 0.0);
    }
}
