//! Cholesky factorization of Hermitian positive-definite matrices.
//!
//! Used by `stap-core::analysis`'s MVDR spectrum: the "traditional"
//! adaptive approach estimates the clutter covariance `R = X^H X / n`
//! and solves `R w = s` — the `O(n^3)` route the paper's Appendix A
//! contrasts with its QR-based least squares ("it is not necessary to
//! produce an estimate of the clutter covariance matrix, which is an
//! order n^3 operation").

use crate::complex::Cx;
use crate::flops;
use crate::mat::CMat;

/// Errors from the factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CholeskyError {
    /// The matrix is not square.
    NotSquare,
    /// A pivot was non-positive (matrix not positive definite) —
    /// carries the failing column.
    NotPositiveDefinite(usize),
}

/// Computes the lower-triangular `L` with `A = L L^H`.
///
/// `A` must be Hermitian positive definite; only its lower triangle is
/// read.
pub fn cholesky(a: &CMat) -> Result<CMat, CholeskyError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(CholeskyError::NotSquare);
    }
    let mut l = CMat::zeros(n, n);
    for j in 0..n {
        // Diagonal: l_jj = sqrt(a_jj - sum |l_jk|^2).
        let mut d = a[(j, j)].re;
        for k in 0..j {
            d -= l[(j, k)].norm_sqr();
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(CholeskyError::NotPositiveDefinite(j));
        }
        let ljj = d.sqrt();
        l[(j, j)] = Cx::real(ljj);
        // Column below the diagonal.
        for i in j + 1..n {
            let mut acc = a[(i, j)];
            for k in 0..j {
                acc -= l[(i, k)] * l[(j, k)].conj();
            }
            l[(i, j)] = acc / ljj;
        }
        flops::add(((n - j) * j) as u64 * flops::CMAC + (n - j) as u64 * 4 + 10);
    }
    Ok(l)
}

/// Solves `A x = b` for Hermitian positive-definite `A` via Cholesky
/// (`L y = b`, then `L^H x = y`), for multiple right-hand sides.
pub fn solve_hpd(a: &CMat, b: &CMat) -> Result<CMat, CholeskyError> {
    let l = cholesky(a)?;
    Ok(solve_with_factor(&l, b))
}

/// Solves with a precomputed Cholesky factor `L` (`A = L L^H`).
pub fn solve_with_factor(l: &CMat, b: &CMat) -> CMat {
    let n = l.rows();
    assert_eq!(b.rows(), n, "rhs rows must match factor");
    let mut x = b.clone();
    // Forward: L y = b.
    for col in 0..b.cols() {
        for i in 0..n {
            let mut acc = x[(i, col)];
            for k in 0..i {
                acc -= l[(i, k)] * x[(k, col)];
            }
            x[(i, col)] = acc / l[(i, i)];
        }
        // Backward: L^H x = y.
        for i in (0..n).rev() {
            let mut acc = x[(i, col)];
            for k in i + 1..n {
                acc -= l[(k, i)].conj() * x[(k, col)];
            }
            x[(i, col)] = acc / l[(i, i)];
        }
    }
    flops::add((b.cols() * n * n) as u64 * flops::CMAC + (b.cols() * n) as u64 * 14);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qr::is_upper_triangular;

    fn hpd(n: usize, seed: u64) -> CMat {
        // A^H A + I is Hermitian positive definite.
        let mut state = seed | 1;
        let a = CMat::from_fn(n + 4, n, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Cx::new(
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
                (state >> 17) as f64 / (1u64 << 47) as f64 - 32.0,
            )
        });
        let mut m = a.hermitian_matmul(&a);
        for i in 0..n {
            m[(i, i)] += Cx::real(1.0);
        }
        m
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = hpd(8, 3);
        let l = cholesky(&a).unwrap();
        // L is lower triangular -> L^H upper.
        assert!(is_upper_triangular(&l.hermitian(), 1e-12));
        let back = l.matmul(&l.hermitian());
        assert!(back.max_abs_diff(&a) < 1e-9, "{}", back.max_abs_diff(&a));
    }

    #[test]
    fn diagonal_of_factor_is_real_positive() {
        let l = cholesky(&hpd(6, 9)).unwrap();
        for i in 0..6 {
            assert!(l[(i, i)].im.abs() < 1e-15);
            assert!(l[(i, i)].re > 0.0);
        }
    }

    #[test]
    fn solve_hpd_inverts() {
        let a = hpd(7, 5);
        let want = CMat::from_fn(7, 2, |i, j| Cx::new(i as f64 - j as f64, 0.5));
        let b = a.matmul(&want);
        let got = solve_hpd(&a, &b).unwrap();
        assert!(got.max_abs_diff(&want) < 1e-8);
    }

    #[test]
    fn identity_factors_to_identity() {
        let l = cholesky(&CMat::identity(5)).unwrap();
        assert!(l.max_abs_diff(&CMat::identity(5)) < 1e-14);
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let mut a = CMat::identity(3);
        a[(2, 2)] = Cx::real(-1.0);
        assert_eq!(cholesky(&a), Err(CholeskyError::NotPositiveDefinite(2)));
    }

    #[test]
    fn non_square_is_rejected() {
        let a = CMat::zeros(3, 4);
        assert_eq!(cholesky(&a), Err(CholeskyError::NotSquare));
    }

    #[test]
    fn rank_deficient_covariance_needs_loading() {
        // Fewer snapshots than dimensions: singular without loading.
        let snaps = CMat::from_fn(2, 6, |i, j| Cx::new((i + j) as f64, i as f64));
        let mut r = snaps.hermitian_matmul(&snaps).scale(0.5);
        assert!(cholesky(&r).is_err());
        for i in 0..6 {
            r[(i, i)] += Cx::real(1e-3);
        }
        assert!(cholesky(&r).is_ok());
    }
}
