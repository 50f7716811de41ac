//! Dense complex matrices.
//!
//! Row-major storage, sized for the small, hot matrices the STAP chain
//! works with: training matrices of a few hundred rows by `J = 16` or
//! `2J = 32` columns, weight matrices `J x M`, and the beamforming products
//! `(M x J) * (J x K)`. The multiply kernel is written i-k-j so the inner
//! loop streams both operands with unit stride.

use crate::complex::{Cx, ONE, ZERO};
use crate::flops;
use crate::gemm;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major complex matrix.
#[derive(Clone, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<Cx>,
}

impl CMat {
    /// An `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMat {
            rows,
            cols,
            data: vec![ZERO; rows * cols],
        }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = ONE;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Cx) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        CMat { rows, cols, data }
    }

    /// Wraps an existing row-major buffer. Panics when the length is not
    /// `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Cx>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} != {rows} x {cols}",
            data.len()
        );
        CMat { rows, cols, data }
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

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[Cx] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [Cx] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into `out` (which must hold exactly `rows`
    /// elements). The zero-alloc counterpart of the old `col` accessor.
    pub fn copy_col_into(&self, j: usize, out: &mut [Cx]) {
        assert!(j < self.cols, "column {j} out of bounds ({})", self.cols);
        assert_eq!(out.len(), self.rows, "copy_col_into length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.data[i * self.cols + j];
        }
    }

    /// Grow-only reshape: after the first few CPIs the backing buffer
    /// stabilizes at the high-water mark and steady state allocates
    /// nothing. Contents are unspecified after a shape change.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        let need = rows * cols;
        if need > self.data.len() {
            self.data.resize(need, ZERO);
        } else {
            self.data.truncate(need);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// The whole backing buffer (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[Cx] {
        &self.data
    }

    /// The whole backing buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Cx] {
        &mut self.data
    }

    /// Consumes the matrix, returning the backing buffer.
    pub fn into_vec(self) -> Vec<Cx> {
        self.data
    }

    /// Conjugate (Hermitian) transpose.
    pub fn hermitian(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Plain transpose (no conjugation).
    pub fn transpose(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Element-wise conjugate.
    pub fn conj(&self) -> CMat {
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x.conj()).collect(),
        }
    }

    /// `self * rhs`. Panics on dimension mismatch.
    pub fn matmul(&self, rhs: &CMat) -> CMat {
        let mut out = CMat::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// `out = self * rhs`, reusing `out`'s storage.
    ///
    /// Counts `8 * m * k * n` flops (complex multiply-accumulate), the
    /// convention behind the paper's beamforming counts in Table 1.
    ///
    /// Products of at least [`gemm::GEMM_CUTOFF`] complex MACs route
    /// through the split-complex [`gemm`] engine (bit-for-bit identical
    /// results, thread-local pack scratch); smaller ones run the
    /// interleaved kernel directly.
    pub fn matmul_into(&self, rhs: &CMat, out: &mut CMat) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul inner dimensions {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(out.shape(), (self.rows, rhs.cols), "output shape mismatch");
        if self.rows * self.cols * rhs.cols >= gemm::GEMM_CUTOFF {
            gemm::with_scratch(|ws| gemm::matmul_planar_into(self, rhs, out, ws));
        } else {
            gemm::matmul_interleaved_into(self, rhs, out);
        }
    }

    /// `self^H * rhs` without materializing the transpose.
    pub fn hermitian_matmul(&self, rhs: &CMat) -> CMat {
        let mut out = CMat::zeros(self.cols, rhs.cols);
        self.hermitian_matmul_into(rhs, &mut out);
        out
    }

    /// `out = self^H * rhs`, reusing `out`'s storage (the steady-state
    /// beamforming kernel: one workspace matrix serves every bin).
    ///
    /// Dispatches like [`CMat::matmul_into`]: large products run the
    /// split-complex [`gemm`] engine, small ones the interleaved kernel.
    /// The `A^H` pack folds the conjugate-transpose into the gather so
    /// the micro-kernel never shuffles.
    pub fn hermitian_matmul_into(&self, rhs: &CMat, out: &mut CMat) {
        assert_eq!(
            self.rows, rhs.rows,
            "hermitian_matmul row dimensions {} vs {}",
            self.rows, rhs.rows
        );
        assert_eq!(out.shape(), (self.cols, rhs.cols), "output shape mismatch");
        if self.rows * self.cols * rhs.cols >= gemm::GEMM_CUTOFF {
            gemm::with_scratch(|ws| gemm::hermitian_matmul_planar_into(self, rhs, out, ws));
        } else {
            gemm::hermitian_matmul_interleaved_into(self, rhs, out);
        }
    }

    /// Overwrites every element with `f(row, col)` without reallocating
    /// (the workspace counterpart of [`CMat::from_fn`]).
    pub fn fill_from_fn(&mut self, mut f: impl FnMut(usize, usize) -> Cx) {
        for i in 0..self.rows {
            let cols = self.cols;
            let row = self.row_mut(i);
            for (j, v) in row.iter_mut().enumerate().take(cols) {
                *v = f(i, j);
            }
        }
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[Cx]) -> Vec<Cx> {
        assert_eq!(self.cols, x.len(), "matvec dimension mismatch");
        let out = (0..self.rows)
            .map(|i| {
                self.row(i)
                    .iter()
                    .zip(x)
                    .fold(ZERO, |acc, (&a, &b)| acc.mul_add(a, b))
            })
            .collect();
        flops::add(flops::CMAC * (self.rows * self.cols) as u64);
        out
    }

    /// Scales every element by a real factor.
    pub fn scale(&self, s: f64) -> CMat {
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x.scale(s)).collect(),
        }
    }

    /// Element-wise sum. Panics on shape mismatch.
    pub fn add(&self, rhs: &CMat) -> CMat {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }

    /// Element-wise difference. Panics on shape mismatch.
    pub fn sub(&self, rhs: &CMat) -> CMat {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }

    /// Vertical concatenation `[self; bottom]`. Panics when column counts
    /// differ.
    pub fn vstack(&self, bottom: &CMat) -> CMat {
        assert_eq!(self.cols, bottom.cols, "vstack column mismatch");
        let mut data = Vec::with_capacity((self.rows + bottom.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&bottom.data);
        CMat {
            rows: self.rows + bottom.rows,
            cols: self.cols,
            data,
        }
    }

    /// Copies rows `r0..r1` into a new matrix.
    pub fn rows_range(&self, r0: usize, r1: usize) -> CMat {
        assert!(r0 <= r1 && r1 <= self.rows, "row range out of bounds");
        CMat {
            rows: r1 - r0,
            cols: self.cols,
            data: self.data[r0 * self.cols..r1 * self.cols].to_vec(),
        }
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|x| x.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Largest absolute element difference against `rhs`.
    pub fn max_abs_diff(&self, rhs: &CMat) -> f64 {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// True when all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<(usize, usize)> for CMat {
    type Output = Cx;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &Cx {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Cx {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:?} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize) -> CMat {
        CMat::from_fn(rows, cols, |i, j| {
            Cx::new(
                (i * cols + j) as f64 * 0.5 - 1.0,
                (i as f64 - j as f64) * 0.25,
            )
        })
    }

    #[test]
    fn identity_multiplication() {
        let a = sample(4, 4);
        let i = CMat::identity(4);
        assert!(a.matmul(&i).max_abs_diff(&a) < 1e-14);
        assert!(i.matmul(&a).max_abs_diff(&a) < 1e-14);
    }

    #[test]
    fn matmul_against_manual_small_case() {
        let a = CMat::from_vec(
            2,
            2,
            vec![
                Cx::new(1.0, 0.0),
                Cx::new(0.0, 1.0),
                Cx::new(2.0, 0.0),
                Cx::new(0.0, 0.0),
            ],
        );
        let b = CMat::from_vec(
            2,
            2,
            vec![
                Cx::new(1.0, 1.0),
                Cx::new(0.0, 0.0),
                Cx::new(1.0, 0.0),
                Cx::new(3.0, 0.0),
            ],
        );
        let c = a.matmul(&b);
        assert!(c[(0, 0)].approx_eq(Cx::new(1.0, 2.0), 1e-14));
        assert!(c[(0, 1)].approx_eq(Cx::new(0.0, 3.0), 1e-14));
        assert!(c[(1, 0)].approx_eq(Cx::new(2.0, 2.0), 1e-14));
        assert!(c[(1, 1)].approx_eq(Cx::new(0.0, 0.0), 1e-14));
    }

    #[test]
    fn matmul_is_associative() {
        let a = sample(3, 4);
        let b = sample(4, 5);
        let c = sample(5, 2);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert!(left.max_abs_diff(&right) < 1e-10);
    }

    #[test]
    fn hermitian_matmul_matches_explicit_transpose() {
        let a = sample(6, 3);
        let b = sample(6, 4);
        let fast = a.hermitian_matmul(&b);
        let slow = a.hermitian().matmul(&b);
        assert!(fast.max_abs_diff(&slow) < 1e-12);
    }

    #[test]
    fn hermitian_twice_is_identity_op() {
        let a = sample(5, 3);
        assert!(a.hermitian().hermitian().max_abs_diff(&a) < 1e-14);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = sample(4, 3);
        let x = vec![Cx::new(1.0, -1.0), Cx::new(0.5, 0.0), Cx::new(0.0, 2.0)];
        let xm = CMat::from_vec(3, 1, x.clone());
        let want = a.matmul(&xm);
        let got = a.matvec(&x);
        for i in 0..4 {
            assert!(got[i].approx_eq(want[(i, 0)], 1e-12));
        }
    }

    #[test]
    fn vstack_and_rows_range_roundtrip() {
        let a = sample(3, 4);
        let b = sample(2, 4);
        let s = a.vstack(&b);
        assert_eq!(s.shape(), (5, 4));
        assert!(s.rows_range(0, 3).max_abs_diff(&a) < 1e-15);
        assert!(s.rows_range(3, 5).max_abs_diff(&b) < 1e-15);
    }

    #[test]
    fn matmul_flop_count() {
        let a = sample(3, 4);
        let b = sample(4, 5);
        let (_c, n) = flops::count(|| a.matmul(&b));
        assert_eq!(n, 8 * 3 * 4 * 5);
    }

    #[test]
    fn add_sub_scale() {
        let a = sample(3, 3);
        let b = sample(3, 3);
        let s = a.add(&b).sub(&b);
        assert!(s.max_abs_diff(&a) < 1e-14);
        assert!(a.scale(2.0).sub(&a).max_abs_diff(&a) < 1e-14);
    }

    #[test]
    #[should_panic(expected = "matmul inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = sample(2, 3);
        let b = sample(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn fro_norm_of_identity() {
        assert!((CMat::identity(9).fro_norm() - 3.0).abs() < 1e-14);
    }
}
