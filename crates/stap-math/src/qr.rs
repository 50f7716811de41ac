//! Householder QR factorization and the recursive (block-update) form.
//!
//! The weight-computation tasks are built on three primitives:
//!
//! * [`qr_r`] — the upper-triangular factor `R` of a tall matrix, used for
//!   the easy-bin training matrices ("a regular (non-recursive) QR
//!   decomposition is performed on the training data"),
//! * [`qr_with_rhs`] — the same factorization with `Q^H` applied to a
//!   right-hand side on the fly, the building block of least squares,
//! * [`qr_update`] — the recursive block update: given the previous `R`
//!   scaled by an exponential forgetting factor and a block of new
//!   training rows, produce the updated `R`. This "requires substantially
//!   less training data (sample support) for accurate weight computation,
//!   as well as providing improved efficiency" (paper, Section 3). The
//!   implementation exploits the triangular structure of the stacked
//!   matrix so the update costs `O(n^2 s)` instead of a fresh `O(n^2 m)`
//!   factorization.

//! ```
//! use stap_math::qr::{qr_r, qr_update, is_upper_triangular};
//! use stap_math::{CMat, Cx};
//!
//! // Factor a training block, then fold in new rows with forgetting.
//! let block = CMat::from_fn(12, 4, |i, j| Cx::new((i + j) as f64, i as f64 - j as f64));
//! let r = qr_r(&block);
//! assert!(is_upper_triangular(&r, 1e-12));
//! let fresh = CMat::from_fn(3, 4, |i, j| Cx::new(1.0 + i as f64, j as f64));
//! let r2 = qr_update(&r, 0.6, &fresh);
//! assert!(is_upper_triangular(&r2, 1e-12));
//! ```

use crate::complex::{Cx, ZERO};
use crate::flops;
use crate::mat::CMat;
use crate::simd;

/// Computes the thin upper-triangular factor `R` (`n x n`) of an `m x n`
/// matrix with `m >= n`.
pub fn qr_r(a: &CMat) -> CMat {
    let mut work = a.clone();
    householder_inplace(&mut work, None);
    upper_triangle(&work)
}

/// Factors `a` and simultaneously applies `Q^H` to `b`, returning
/// `(R, Q^H b truncated to n rows)` — exactly what back substitution needs
/// for least squares.
pub fn qr_with_rhs(a: &CMat, b: &CMat) -> (CMat, CMat) {
    assert_eq!(a.rows(), b.rows(), "rhs must have as many rows as a");
    let mut work = a.clone();
    let mut rhs = b.clone();
    householder_inplace(&mut work, Some(&mut rhs));
    (upper_triangle(&work), rhs.rows_range(0, a.cols()))
}

/// Recursive QR update: the `R` factor of `[forget * r_old; new_rows]`.
///
/// `r_old` must be a square upper-triangular matrix (`n x n`); `new_rows`
/// is `s x n`. The stacked matrix's leading block is triangular, so column
/// `k`'s Householder reflector only touches row `k` of the old `R` and the
/// `s` new rows, giving the `O(n^2 s)` cost the paper's hard-weight task
/// depends on.
pub fn qr_update(r_old: &CMat, forget: f64, new_rows: &CMat) -> CMat {
    let mut out = CMat::zeros(r_old.rows(), r_old.cols());
    let mut ws = QrScratch::new();
    qr_update_with(r_old, forget, new_rows, &mut out, &mut ws);
    out
}

/// Persistent scratch for [`qr_update_with`]: the new-rows block held in
/// split-complex, **transposed** form (`cols x s`, so each column of the
/// update block is a unit-stride plane row) plus the reflector snapshot.
/// Buffers grow once and are reused; steady state allocates nothing.
#[derive(Default)]
pub struct QrScratch {
    /// `x^T` real plane, `cols x s` row-major.
    xt_re: Vec<f64>,
    /// `x^T` imaginary plane, `cols x s` row-major.
    xt_im: Vec<f64>,
    /// Reflector snapshot (real), length `s`.
    v_re: Vec<f64>,
    /// Reflector snapshot (imaginary), length `s`.
    v_im: Vec<f64>,
}

impl QrScratch {
    /// Empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        QrScratch::default()
    }

    fn ensure(&mut self, cols: usize, s: usize) {
        let n = cols * s;
        if self.xt_re.len() < n {
            self.xt_re.resize(n, 0.0);
            self.xt_im.resize(n, 0.0);
        }
        if self.v_re.len() < s {
            self.v_re.resize(s, 0.0);
            self.v_im.resize(s, 0.0);
        }
    }
}

/// Allocation-free [`qr_update`]: writes the updated `R` into `out`
/// (resized grow-only) using the caller's [`QrScratch`].
///
/// The new-rows block lives in split-complex transposed layout so the
/// reflector dot-products and rank-1 updates stream unit-stride f64
/// lanes; every arithmetic expression preserves the interleaved
/// kernel's evaluation order (negation and `a - b == a + (-b)` are
/// exact in IEEE-754), so results are **bit-for-bit** identical to the
/// original — the golden detection outputs do not move.
pub fn qr_update_with(
    r_old: &CMat,
    forget: f64,
    new_rows: &CMat,
    out: &mut CMat,
    ws: &mut QrScratch,
) {
    // `r_old` may carry extra columns beyond the triangular block (an
    // augmented right-hand side); only the leading `rows x rows` block must
    // be upper triangular.
    let n = r_old.rows();
    let cols = r_old.cols();
    assert!(
        cols >= n,
        "r_old must have at least as many columns as rows"
    );
    assert_eq!(new_rows.cols(), cols, "new_rows column mismatch");
    let s = new_rows.rows();

    // r = r_old * forget, written into the caller's buffer.
    out.resize(n, cols);
    for (o, &v) in out.as_mut_slice().iter_mut().zip(r_old.as_slice()) {
        *o = v.scale(forget);
    }
    flops::add(2 * (n * n) as u64); // the forgetting-factor scaling

    // Pack the new block transposed: plane row j holds column j of x.
    ws.ensure(cols, s);
    for i in 0..s {
        let row = new_rows.row(i);
        for (j, &v) in row.iter().enumerate() {
            ws.xt_re[j * s + i] = v.re;
            ws.xt_im[j * s + i] = v.im;
        }
    }
    let r = out;

    // For each column k, annihilate the s entries of the new block using a
    // Householder reflector on the vector [r[k,k]; x[:,k]].
    for k in 0..n {
        let mut norm_sqr = r[(k, k)].norm_sqr();
        {
            let (xkr, xki) = (&ws.xt_re[k * s..(k + 1) * s], &ws.xt_im[k * s..(k + 1) * s]);
            for i in 0..s {
                norm_sqr += xkr[i] * xkr[i] + xki[i] * xki[i];
            }
        }
        let norm = norm_sqr.sqrt();
        if norm == 0.0 {
            continue;
        }
        let d = r[(k, k)];
        // alpha = -e^{i arg(d)} * norm keeps v well conditioned.
        let phase = if d.abs() == 0.0 {
            Cx::real(1.0)
        } else {
            d.scale(1.0 / d.abs())
        };
        let alpha = -phase.scale(norm);
        let v0 = d - alpha;
        // Snapshot the reflector: column k of x is overwritten below while
        // later columns still need the original vector.
        let mut vnorm_sqr = v0.norm_sqr();
        {
            let (xkr, xki) = (&ws.xt_re[k * s..(k + 1) * s], &ws.xt_im[k * s..(k + 1) * s]);
            ws.v_re[..s].copy_from_slice(xkr);
            ws.v_im[..s].copy_from_slice(xki);
            for i in 0..s {
                vnorm_sqr += xkr[i] * xkr[i] + xki[i] * xki[i];
            }
        }
        if vnorm_sqr == 0.0 {
            continue;
        }
        let beta = 2.0 / vnorm_sqr;
        let (vr, vi) = (&ws.v_re[..s], &ws.v_im[..s]);
        // Apply (I - beta v v^H) to columns k+1..n of the stacked matrix.
        for j in k + 1..cols {
            let xjr = &mut ws.xt_re[j * s..(j + 1) * s];
            let xji = &mut ws.xt_im[j * s..(j + 1) * s];
            // w = v^H * col_j over the affected rows (sequential over i,
            // matching the interleaved mul_add chain exactly).
            let w0 = v0.conj() * r[(k, j)];
            let (mut w_re, mut w_im) = (w0.re, w0.im);
            for i in 0..s {
                w_re = w_re + vr[i] * xjr[i] + vi[i] * xji[i];
                w_im = w_im + vr[i] * xji[i] - vi[i] * xjr[i];
            }
            let wb = Cx::new(w_re, w_im).scale(beta);
            r[(k, j)] -= v0 * wb;
            let (wbr, wbi) = (wb.re, wb.im);
            for i in 0..s {
                // x[i][j] -= v[i] * wb, componentwise (vectorizable).
                xjr[i] -= vr[i] * wbr - vi[i] * wbi;
                xji[i] -= vr[i] * wbi + vi[i] * wbr;
            }
        }
        // Column k transforms to alpha on the diagonal, zeros below.
        r[(k, k)] = alpha;
        ws.xt_re[k * s..(k + 1) * s].fill(0.0);
        ws.xt_im[k * s..(k + 1) * s].fill(0.0);
        flops::add((cols - k) as u64 * (2 * flops::CMAC * s as u64 + 20) + 4 * s as u64 + 30);
    }
}

/// Independent problems the lane kernels carry per vector.
pub const LANES: usize = 4;

/// One `f64` per lane.
pub type Lane = [f64; LANES];

/// [`LANES`] equally shaped complex matrices held element-interleaved
/// and split-complex: element `(i, j)` of lane `l`'s matrix is
/// `(re[i * cols + j][l], im[i * cols + j][l])`. Every arithmetic
/// statement of the lane kernels is a loop over `l` of the scalar
/// kernel's own expression, so one 256-bit instruction advances four
/// problems by one scalar step and each lane's result is bit-for-bit the
/// scalar kernel's.
#[derive(Clone, Debug, Default)]
pub struct LaneMat {
    rows: usize,
    cols: usize,
    re: Vec<Lane>,
    im: Vec<Lane>,
}

impl LaneMat {
    /// `rows x cols` zeros in every lane.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        LaneMat {
            rows,
            cols,
            re: vec![[0.0; LANES]; rows * cols],
            im: vec![[0.0; LANES]; rows * cols],
        }
    }

    /// `(rows, cols)` of each lane's matrix.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Grow-only reshape; contents are unspecified afterwards.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        let n = rows * cols;
        if self.re.len() < n {
            self.re.resize(n, [0.0; LANES]);
            self.im.resize(n, [0.0; LANES]);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Overwrites lane `l` with `m` (same shape).
    pub fn set_lane(&mut self, l: usize, m: &CMat) {
        assert_eq!(m.shape(), self.shape(), "lane shape mismatch");
        for (idx, v) in m.as_slice().iter().enumerate() {
            self.re[idx][l] = v.re;
            self.im[idx][l] = v.im;
        }
    }

    /// Lane `l` as an interleaved matrix.
    pub fn lane(&self, l: usize) -> CMat {
        let n = self.rows * self.cols;
        let data = (0..n)
            .map(|idx| Cx::new(self.re[idx][l], self.im[idx][l]))
            .collect();
        CMat::from_vec(self.rows, self.cols, data)
    }

    /// Conjugate-transposing pack of a band of columns, all lanes at
    /// once: `src[l]` is lane `l`'s `[column][row]` run (each column
    /// `rows` elements, the layout of a training-snapshot block whose
    /// rows are snapshots) and lands conjugated in columns `col0..`,
    /// i.e. `self[(r, col0 + c)] = conj(src[l][c * rows + r])` — the
    /// transposed new-rows operand of [`qr_update_lanes`].
    pub fn fill_cols_conj(&mut self, col0: usize, src: [&[Cx]; LANES]) {
        let (rows, cols) = (self.rows, self.cols);
        let len = src[0].len();
        assert!(
            src.iter().all(|s| s.len() == len),
            "lane runs differ in length"
        );
        if rows == 0 {
            assert_eq!(len, 0, "fill_cols_conj into an empty matrix");
            return;
        }
        assert_eq!(len % rows, 0, "fill_cols_conj ragged source");
        assert!(col0 + len / rows <= cols, "fill_cols_conj out of bounds");
        for c in 0..len / rows {
            for r in 0..rows {
                let (s, d) = (c * rows + r, r * cols + col0 + c);
                for (l, run) in src.iter().enumerate() {
                    self.re[d][l] = run[s].re;
                    self.im[d][l] = -run[s].im;
                }
            }
        }
    }

    /// Split borrow of both planes.
    #[inline]
    pub(crate) fn planes_mut(&mut self) -> (&mut [Lane], &mut [Lane]) {
        let n = self.rows * self.cols;
        (&mut self.re[..n], &mut self.im[..n])
    }

    /// Both planes.
    #[inline]
    pub(crate) fn planes(&self) -> (&[Lane], &[Lane]) {
        let n = self.rows * self.cols;
        (&self.re[..n], &self.im[..n])
    }
}

/// Lane form of [`qr_update_with`], in place: every lane's `r` becomes
/// the `R` factor of `[forget * r; x]`, where `xt` holds the lanes' new
/// rows **transposed** (`cols x s`, see [`LaneMat::fill_cols_conj`]) and
/// is consumed as scratch. Lane `l` runs exactly the scalar kernel's
/// IEEE operation sequence, so `r.lane(l)` equals what `qr_update_with`
/// returns for that lane's operands bit for bit (given, as there, zeros
/// below the diagonal of the leading block).
///
/// Lanes `live..` are padding: the caller fills them with any benign
/// operands (a copy of lane 0, say), they cost nothing extra and are
/// left out of the flop count.
pub fn qr_update_lanes(r: &mut LaneMat, forget: f64, xt: &mut LaneMat, live: usize) {
    let (n, cols) = r.shape();
    assert!(cols >= n, "r must have at least as many columns as rows");
    assert_eq!(xt.shape().0, cols, "new-rows column mismatch");
    // Below the diagonal the factor is zero and stays zero; the kernels
    // neither read nor write there.
    let (rr, ri) = r.planes_mut();
    for i in 0..n {
        let row = i * cols + i..(i + 1) * cols;
        for v in rr[row.clone()].iter_mut().chain(&mut ri[row]) {
            for x in v {
                *x *= forget;
            }
        }
    }
    flops::add(live as u64 * 2 * (n * n) as u64);
    annihilate_lanes(r, xt, std::array::from_fn(|l| l < live));
}

/// The column loop of the structured update on lane operands: Householder
/// reflectors on `[r[k][k]; x[:, k]]` for `k in 0..rows`, applied to
/// columns `k + 1..cols` of both blocks. Shared by the recursive update
/// and the bordered constrained solve; only `live` lanes count flops.
pub(crate) fn annihilate_lanes(r: &mut LaneMat, xt: &mut LaneMat, live: [bool; LANES]) {
    let (n, cols) = r.shape();
    let s = xt.shape().1;
    let (rr, ri) = r.planes_mut();
    let (xr, xi) = xt.planes_mut();
    // |r[k][k]|^2 + sum_i |x[i][k]|^2, the scalar kernel's first pass
    // over column k. Reflector k leaves it behind for column k + 1 (see
    // `Reflector::apply`); column 0 has no predecessor.
    let mut norm_sqr = [0.0; LANES];
    if n > 0 {
        norm_sqr = sum_sqr(norm_sqr_of(rr[0], ri[0]), &xr[..s], &xi[..s]);
    }
    for k in 0..n {
        // Column k of x is the reflector's tail; columns after it are
        // what the reflector is applied to.
        let (xr_head, xr_tail) = xr.split_at_mut((k + 1) * s);
        let (xi_head, xi_tail) = xi.split_at_mut((k + 1) * s);
        let (vr, vi) = (&xr_head[k * s..], &xi_head[k * s..]);
        let (head, ar, ai) =
            Reflector::new(norm_sqr, (rr[k * cols + k], ri[k * cols + k]), (vr, vi), s);
        let on = head.on;
        if k + 1 < n {
            let next = (k + 1) * cols + k + 1;
            norm_sqr = norm_sqr_of(rr[next], ri[next]);
        }
        let row = k * cols + k + 1..(k + 1) * cols;
        let (rkr, rki) = (&mut rr[row.clone()], &mut ri[row]);
        if on == [true; LANES] {
            head.apply::<true, false>(rkr, rki, xr_tail, xi_tail, &mut norm_sqr);
        } else {
            head.apply::<false, false>(rkr, rki, xr_tail, xi_tail, &mut norm_sqr);
        }
        let mut stepped = 0u64;
        for l in 0..LANES {
            if on[l] {
                rr[k * cols + k][l] = ar[l];
                ri[k * cols + k][l] = ai[l];
                stepped += u64::from(live[l]);
            }
        }
        flops::add(
            stepped * ((cols - k) as u64 * (2 * flops::CMAC * s as u64 + 20) + 4 * s as u64 + 30),
        );
    }
}

/// Lane form of the dense reduction behind [`qr_with_rhs`]: `at` holds
/// the lanes' `[A | B]` **transposed** (`(n + rhs) x m`, row `j` being
/// column `j` of `A`, then of `B`) and is consumed; `top` becomes
/// `[R | Q^H B]` (`n x (n + rhs)`, the bordered layout the lane
/// back-substitution reads; below the diagonal it is unspecified). Lane
/// `l` runs `householder_inplace`'s IEEE operation sequence — a column's
/// update of itself is skipped, its outcome being overwritten by
/// `alpha` and zeros — so row `k` of `top` equals the scalar `R` and
/// `Q^H B` rows bit for bit. Only `live` lanes count flops.
pub(crate) fn householder_lanes(
    at: &mut LaneMat,
    n: usize,
    top: &mut LaneMat,
    live: [bool; LANES],
) {
    let (cols, m) = at.shape();
    assert!(n <= cols, "more factor columns than the work matrix has");
    assert!(m >= n, "QR requires rows >= cols ({m} < {n})");
    top.resize(n, cols);
    let (ar, ai) = at.planes_mut();
    let (tr, ti) = top.planes_mut();
    // sum_{i >= k} |a[i][k]|^2: reflector k leaves it behind for column
    // k + 1 (see `Reflector::apply`); column 0 has no predecessor.
    let mut norm_sqr = [0.0; LANES];
    if n > 0 {
        norm_sqr = sum_sqr(norm_sqr, &ar[..m], &ai[..m]);
    }
    for k in 0..n {
        // Row k is final once reflector k has been applied to it: it
        // moves to `top`, where it is the reflector's head row.
        let (trow, tirow) = (
            &mut tr[k * cols..(k + 1) * cols],
            &mut ti[k * cols..(k + 1) * cols],
        );
        for c in k..cols {
            (trow[c], tirow[c]) = (ar[c * m + k], ai[c * m + k]);
        }
        // Rows k + 1.. of column k are the reflector's tail, the same
        // rows of the columns after it what it is applied to.
        let (ar_head, ar_tail) = ar.split_at_mut((k + 1) * m);
        let (ai_head, ai_tail) = ai.split_at_mut((k + 1) * m);
        let tail = k * m + k + 1..(k + 1) * m;
        let (head, alpha_r, alpha_i) = Reflector::new(
            norm_sqr,
            (trow[k], tirow[k]),
            (&ar_head[tail.clone()], &ai_head[tail]),
            m,
        );
        let on = head.on;
        norm_sqr = [0.0; LANES];
        if k + 1 < cols {
            let (rkr, rki) = (&mut trow[k + 1..], &mut tirow[k + 1..]);
            let (xr, xi) = (&mut ar_tail[k + 1..], &mut ai_tail[k + 1..]);
            if on == [true; LANES] {
                head.apply::<true, true>(rkr, rki, xr, xi, &mut norm_sqr);
            } else {
                head.apply::<false, true>(rkr, rki, xr, xi, &mut norm_sqr);
            }
        }
        let mut stepped = 0u64;
        for l in 0..LANES {
            if on[l] {
                (trow[k][l], tirow[k][l]) = (alpha_r[l], alpha_i[l]);
                stepped += u64::from(live[l]);
            }
        }
        let rows = (m - k) as u64;
        flops::add(stepped * ((cols - k) as u64 * (2 * flops::CMAC * rows + 2) + 4 * rows + 30));
    }
}

/// `re^2 + im^2` per lane.
#[inline(always)]
fn norm_sqr_of(re: Lane, im: Lane) -> Lane {
    std::array::from_fn(|l| re[l] * re[l] + im[l] * im[l])
}

/// `acc + sum_i |x[i]|^2` per lane, ascending over the rows.
#[inline(always)]
fn sum_sqr(mut acc: Lane, xr: &[Lane], xi: &[Lane]) -> Lane {
    for (re, im) in xr.iter().zip(xi) {
        for l in 0..LANES {
            acc[l] += re[l] * re[l] + im[l] * im[l];
        }
    }
    acc
}

/// One column's Householder reflector on lane operands.
struct Reflector<'a> {
    /// Lanes the scalar kernel would not have skipped at this column.
    on: [bool; LANES],
    v0r: Lane,
    v0i: Lane,
    beta: Lane,
    /// The reflector's tail, `s` rows.
    vr: &'a [Lane],
    vi: &'a [Lane],
    /// Distance between the tails of adjacent columns in `x^T` (`s` when
    /// the columns are packed back to back).
    stride: usize,
}

impl<'a> Reflector<'a> {
    /// The scalar kernels' once-per-column work, lane by lane: from the
    /// column's `norm_sqr`, its diagonal element `d` and the tail below
    /// it come the `norm == 0` skip, the phase (the four lanes' `|d|` in
    /// one [`simd::abs_lanes`] call, and the `|d| == 0` branch), alpha,
    /// the reflector head, `beta` and the `vnorm_sqr == 0` skip. Returns the reflector and alpha, which
    /// replaces the diagonal in the lanes that are `on`.
    #[inline(always)]
    fn new(
        norm_sqr: Lane,
        (dr, di): (Lane, Lane),
        (vr, vi): (&'a [Lane], &'a [Lane]),
        stride: usize,
    ) -> (Self, Lane, Lane) {
        let mut on = [true; LANES];
        let (mut ar, mut ai) = ([0.0; LANES], [0.0; LANES]);
        let (mut v0r, mut v0i) = ([0.0; LANES], [0.0; LANES]);
        let d_abs = simd::abs_lanes(dr, di);
        for l in 0..LANES {
            let norm = norm_sqr[l].sqrt();
            if norm == 0.0 {
                on[l] = false;
                continue;
            }
            let d = Cx::new(dr[l], di[l]);
            let phase = if d_abs[l] == 0.0 {
                Cx::real(1.0)
            } else {
                d.scale(1.0 / d_abs[l])
            };
            let alpha = -phase.scale(norm);
            let v0 = d - alpha;
            (ar[l], ai[l]) = (alpha.re, alpha.im);
            (v0r[l], v0i[l]) = (v0.re, v0.im);
        }
        let vnorm_sqr = sum_sqr(norm_sqr_of(v0r, v0i), vr, vi);
        let mut beta = [0.0; LANES];
        for l in 0..LANES {
            on[l] &= vnorm_sqr[l] != 0.0;
            beta[l] = 2.0 / vnorm_sqr[l];
        }
        let head = Reflector {
            on,
            v0r,
            v0i,
            beta,
            vr,
            vi,
            stride,
        };
        (head, ar, ai)
    }

    /// Applies `I - beta v v^H` to the columns right of the reflector's
    /// own: `rkr`/`rki` are that part of row `k` of `r`, `xr`/`xi` the
    /// matching columns of `x^T` (`s` rows each, `stride` apart). With
    /// `ALL` every lane steps and the loops over `l` vectorise; without
    /// it the lanes that are off keep their operands untouched, as the
    /// scalar kernel's `continue` does. `DENSE` starts each column's dot
    /// product from zero, as the dense reduction's `mul_add` chain does
    /// (`0.0 + x` differs from `x` in the sign of a negative zero).
    ///
    /// The columns are independent of one another, so they are walked
    /// from the last to the first with the next column's dot product
    /// riding in the loop that updates the current one: the dot is a
    /// chain of dependent adds, the update is not, and together they
    /// fill the pipeline (an ordered reduction in every loop over the
    /// rows also keeps the compiler vectorising across lanes rather than
    /// across rows). The first column — the next reflector's own — is
    /// updated last and leaves `sum_i |x[i]|^2` added to `next_norm_sqr`.
    /// Per column every sum still ascends over the rows as the scalar
    /// kernel's does.
    ///
    /// Kept out of line on purpose: as arguments of a real call the four
    /// slices are known not to overlap, and that is what lets the
    /// compiler turn each loop over `l` into one vector instruction
    /// (inlined into the caller it falls back to scalar code, ~3x slower).
    #[inline(never)]
    fn apply<const ALL: bool, const DENSE: bool>(
        &self,
        rkr: &mut [Lane],
        rki: &mut [Lane],
        xr: &mut [Lane],
        xi: &mut [Lane],
        next_norm_sqr: &mut Lane,
    ) {
        let Reflector {
            on,
            v0r,
            v0i,
            beta,
            vr,
            vi,
            stride,
        } = *self;
        let s = vr.len();
        let Some(last) = rkr.len().checked_sub(1) else {
            return;
        };
        // w0 = conj(v0) * r[k][j] starts column j's dot product.
        let w0 = |rjr: Lane, rji: Lane| {
            let (mut wr, mut wi) = ([0.0; LANES], [0.0; LANES]);
            for l in 0..LANES {
                if ALL || on[l] {
                    let (cr, ci) = (v0r[l], -v0i[l]);
                    if DENSE {
                        wr[l] = 0.0 + cr * rjr[l] - ci * rji[l];
                        wi[l] = 0.0 + cr * rji[l] + ci * rjr[l];
                    } else {
                        wr[l] = cr * rjr[l] - ci * rji[l];
                        wi[l] = cr * rji[l] + ci * rjr[l];
                    }
                }
            }
            (wr, wi)
        };
        let (mut wr, mut wi) = w0(rkr[last], rki[last]);
        for (((v_r, v_i), x_r), x_i) in vr
            .iter()
            .zip(vi)
            .zip(&xr[last * stride..])
            .zip(&xi[last * stride..])
        {
            for l in 0..LANES {
                if ALL || on[l] {
                    wr[l] = wr[l] + v_r[l] * x_r[l] + v_i[l] * x_i[l];
                    wi[l] = wi[l] + v_r[l] * x_i[l] - v_i[l] * x_r[l];
                }
            }
        }
        for c in (0..=last).rev() {
            let (mut wbr, mut wbi) = ([0.0; LANES], [0.0; LANES]);
            for l in 0..LANES {
                if ALL || on[l] {
                    wbr[l] = wr[l] * beta[l];
                    wbi[l] = wi[l] * beta[l];
                    rkr[c][l] -= v0r[l] * wbr[l] - v0i[l] * wbi[l];
                    rki[c][l] -= v0r[l] * wbi[l] + v0i[l] * wbr[l];
                }
            }
            let (xr_before, xr_c) = xr[..c * stride + s].split_at_mut(c * stride);
            let (xi_before, xi_c) = xi[..c * stride + s].split_at_mut(c * stride);
            let rows = vr.iter().zip(vi).zip(xr_c.iter_mut().zip(xi_c.iter_mut()));
            if c > 0 {
                (wr, wi) = w0(rkr[c - 1], rki[c - 1]);
                let next = xr_before[(c - 1) * stride..]
                    .iter()
                    .zip(&xi_before[(c - 1) * stride..]);
                for (((v_r, v_i), (x_r, x_i)), (n_r, n_i)) in rows.zip(next) {
                    for l in 0..LANES {
                        if ALL || on[l] {
                            x_r[l] -= v_r[l] * wbr[l] - v_i[l] * wbi[l];
                            x_i[l] -= v_r[l] * wbi[l] + v_i[l] * wbr[l];
                            wr[l] = wr[l] + v_r[l] * n_r[l] + v_i[l] * n_i[l];
                            wi[l] = wi[l] + v_r[l] * n_i[l] - v_i[l] * n_r[l];
                        }
                    }
                }
            } else {
                for ((v_r, v_i), (x_r, x_i)) in rows {
                    for l in 0..LANES {
                        if ALL || on[l] {
                            x_r[l] -= v_r[l] * wbr[l] - v_i[l] * wbi[l];
                            x_i[l] -= v_r[l] * wbi[l] + v_i[l] * wbr[l];
                        }
                        next_norm_sqr[l] += x_r[l] * x_r[l] + x_i[l] * x_i[l];
                    }
                }
            }
        }
    }
}

/// In-place Householder reduction to upper-triangular form, optionally
/// applying the same reflectors to `rhs`.
fn householder_inplace(a: &mut CMat, mut rhs: Option<&mut CMat>) {
    let (m, n) = a.shape();
    assert!(m >= n, "QR requires rows >= cols ({m} < {n})");
    let rhs_cols = rhs.as_ref().map_or(0, |b| b.cols());
    let mut v = vec![ZERO; m];
    for k in 0..n {
        // Build the reflector for column k below (and including) row k.
        let mut norm_sqr = 0.0;
        for i in k..m {
            norm_sqr += a[(i, k)].norm_sqr();
        }
        let norm = norm_sqr.sqrt();
        if norm == 0.0 {
            continue;
        }
        let d = a[(k, k)];
        let phase = if d.abs() == 0.0 {
            Cx::real(1.0)
        } else {
            d.scale(1.0 / d.abs())
        };
        let alpha = -phase.scale(norm);
        v[k] = d - alpha;
        let mut vnorm_sqr = v[k].norm_sqr();
        for i in k + 1..m {
            v[i] = a[(i, k)];
            vnorm_sqr += v[i].norm_sqr();
        }
        if vnorm_sqr == 0.0 {
            continue;
        }
        let beta = 2.0 / vnorm_sqr;
        // Apply to the remaining columns of a.
        for j in k..n {
            let mut w = ZERO;
            for i in k..m {
                w = w.mul_add(v[i].conj(), a[(i, j)]);
            }
            let wb = w.scale(beta);
            for i in k..m {
                let t = v[i];
                a[(i, j)] -= t * wb;
            }
        }
        // Apply to the right-hand side.
        if let Some(b) = rhs.as_deref_mut() {
            for j in 0..b.cols() {
                let mut w = ZERO;
                for i in k..m {
                    w = w.mul_add(v[i].conj(), b[(i, j)]);
                }
                let wb = w.scale(beta);
                for i in k..m {
                    let t = v[i];
                    b[(i, j)] -= t * wb;
                }
            }
        }
        a[(k, k)] = alpha;
        for i in k + 1..m {
            a[(i, k)] = ZERO;
        }
        let rows = (m - k) as u64;
        flops::add(
            ((n - k) as u64 + rhs_cols as u64) * (2 * flops::CMAC * rows + 2) + 4 * rows + 30,
        );
    }
}

/// Extracts the leading `n x n` upper triangle of a reduced matrix.
fn upper_triangle(a: &CMat) -> CMat {
    let n = a.cols();
    CMat::from_fn(n, n, |i, j| if j >= i { a[(i, j)] } else { ZERO })
}

/// True when `r` is upper triangular to tolerance `tol`.
pub fn is_upper_triangular(r: &CMat, tol: f64) -> bool {
    for i in 0..r.rows() {
        for j in 0..i.min(r.cols()) {
            if r[(i, j)].abs() > tol {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn training(m: usize, n: usize, seed: u64) -> CMat {
        // Deterministic pseudo-random matrix without pulling in `rand`.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        CMat::from_fn(m, n, |_, _| Cx::new(next(), next()))
    }

    /// R^H R must equal A^H A (the Gram matrix is preserved by QR).
    fn assert_gram_preserved(a: &CMat, r: &CMat, tol: f64) {
        let gram_a = a.hermitian_matmul(a);
        let gram_r = r.hermitian_matmul(r);
        assert!(
            gram_a.max_abs_diff(&gram_r) < tol,
            "gram mismatch: {}",
            gram_a.max_abs_diff(&gram_r)
        );
    }

    #[test]
    fn qr_r_is_upper_triangular_and_preserves_gram() {
        let a = training(40, 8, 7);
        let r = qr_r(&a);
        assert_eq!(r.shape(), (8, 8));
        assert!(is_upper_triangular(&r, 1e-12));
        assert_gram_preserved(&a, &r, 1e-10);
    }

    #[test]
    fn qr_of_identity_is_diagonal_unit_modulus() {
        let r = qr_r(&CMat::identity(5));
        for i in 0..5 {
            assert!((r[(i, i)].abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn qr_with_rhs_solves_consistent_system() {
        // Ax = b with x known exactly; least squares must recover x.
        let a = training(30, 6, 3);
        let x = training(6, 2, 11);
        let b = a.matmul(&x);
        let (r, qtb) = qr_with_rhs(&a, &b);
        let got = crate::solve::back_substitute(&r, &qtb);
        assert!(got.max_abs_diff(&x) < 1e-9);
    }

    #[test]
    fn qr_update_matches_full_refactorization() {
        let n = 8;
        let old = training(32, n, 5);
        let r_old = qr_r(&old);
        let forget = 0.6;
        let newrows = training(12, n, 21);

        let fast = qr_update(&r_old, forget, &newrows);
        let stacked = r_old.scale(forget).vstack(&newrows);
        let slow = qr_r(&stacked);

        // R is unique up to a diagonal phase; compare the Gram matrices.
        let gf = fast.hermitian_matmul(&fast);
        let gs = slow.hermitian_matmul(&slow);
        assert!(gf.max_abs_diff(&gs) < 1e-10);
        assert!(is_upper_triangular(&fast, 1e-12));
    }

    #[test]
    fn repeated_updates_track_growing_dataset_with_forgetting() {
        // With forget = 1.0, k sequential updates must equal one big QR.
        let n = 6;
        let blocks: Vec<CMat> = (0..4).map(|i| training(10, n, 100 + i)).collect();
        let mut r = qr_r(&blocks[0]);
        for b in &blocks[1..] {
            r = qr_update(&r, 1.0, b);
        }
        let mut all = blocks[0].clone();
        for b in &blocks[1..] {
            all = all.vstack(b);
        }
        let want = qr_r(&all);
        let gf = r.hermitian_matmul(&r);
        let gs = want.hermitian_matmul(&want);
        assert!(gf.max_abs_diff(&gs) < 1e-9);
    }

    #[test]
    fn update_is_cheaper_than_refactorization() {
        let n = 32;
        let r_old = qr_r(&training(200, n, 1));
        let newrows = training(20, n, 2);
        let (_r1, fast) = flops::count(|| qr_update(&r_old, 0.6, &newrows));
        let stacked = r_old.scale(0.6).vstack(&newrows);
        let (_r2, slow) = flops::count(|| qr_r(&stacked));
        assert!(
            fast < slow,
            "structured update ({fast}) should beat refactorization ({slow})"
        );
    }

    #[test]
    fn zero_matrix_survives() {
        let a = CMat::zeros(10, 4);
        let r = qr_r(&a);
        assert!(r.fro_norm() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "rows >= cols")]
    fn wide_matrix_panics() {
        let _ = qr_r(&training(3, 5, 1));
    }
}
