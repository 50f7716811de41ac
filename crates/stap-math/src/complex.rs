//! Double-precision complex numbers.
//!
//! The STAP chain works exclusively on complex baseband samples. The paper's
//! implementation used single precision on the i860; we use `f64` for the
//! library (weight computation involves ill-conditioned least-squares
//! systems) and count flops the way the radar literature does: one real
//! add/sub/mul/div/compare = 1 flop, so a complex multiply is 6 flops and a
//! complex add is 2.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Cx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// The additive identity.
pub const ZERO: Cx = Cx { re: 0.0, im: 0.0 };
/// The multiplicative identity.
pub const ONE: Cx = Cx { re: 1.0, im: 0.0 };
/// The imaginary unit.
pub const I: Cx = Cx { re: 0.0, im: 1.0 };

impl Cx {
    /// Creates a complex number from rectangular components.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        Cx { re, im }
    }

    /// Creates a purely real complex number.
    #[inline(always)]
    pub const fn real(re: f64) -> Self {
        Cx { re, im: 0.0 }
    }

    /// Creates `e^{i theta}` (a unit phasor).
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Cx::new(theta.cos(), theta.sin())
    }

    /// Creates a complex number from polar coordinates.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Cx::new(r * theta.cos(), r * theta.sin())
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Cx::new(self.re, -self.im)
    }

    /// Squared magnitude `re^2 + im^2`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude, bit for bit what glibc's `hypot(re, im)` returns (its
    /// algorithm since 2.35; `tests/simd_kernels.rs` compares the two on
    /// every glibc target). Inputs in `hypot_in_range` go through
    /// `hypot_kernel`, glibc's own algorithm with every operation in its
    /// order and no FMA, so the magnitude costs a few ns instead of a
    /// libm call; any other input (zeros, tiny or huge parts, one part
    /// negligible beside the other, infinities, NaNs) takes
    /// `f64::hypot`. [`crate::simd::abs_lanes`] and
    /// [`crate::simd::sum_abs`] run the same operations four lanes at a
    /// time.
    #[inline]
    pub fn abs(self) -> f64 {
        // Larger and smaller part, as glibc orders them.
        let (a, b) = (self.re.abs(), self.im.abs());
        let (ax, ay) = if a < b { (b, a) } else { (a, b) };
        if hypot_in_range(ax, ay) {
            hypot_kernel(ax, ay)
        } else {
            self.re.hypot(self.im)
        }
    }

    /// Argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        Cx::new(self.re * s, self.im * s)
    }

    /// Reciprocal `1/self`; returns NaNs for zero input like `f64` division.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Cx::new(self.re / d, -self.im / d)
    }

    /// `self * other.conj()`, the elementary correlation product.
    #[inline(always)]
    pub fn mul_conj(self, other: Cx) -> Self {
        Cx::new(
            self.re * other.re + self.im * other.im,
            self.im * other.re - self.re * other.im,
        )
    }

    /// Fused multiply-add `self + a*b` written to avoid temporaries in hot
    /// loops.
    #[inline(always)]
    pub fn mul_add(self, a: Cx, b: Cx) -> Self {
        Cx::new(
            self.re + a.re * b.re - a.im * b.im,
            self.im + a.re * b.im + a.im * b.re,
        )
    }

    /// True when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Approximate equality with absolute tolerance `tol` on both parts.
    #[inline]
    pub fn approx_eq(self, other: Cx, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }
}

/// `2^511`: above it `ax * ax` could overflow, and glibc rescales.
pub(crate) const HYPOT_LARGE: f64 = f64::from_bits((1023 + 511) << 52);
/// `2^-459`: below it the kernel's correction terms could underflow,
/// and glibc rescales.
pub(crate) const HYPOT_TINY: f64 = f64::from_bits((1023 - 459) << 52);
/// `2^-54`: at or below `ax * HYPOT_EPS` glibc returns `ax + ay`.
pub(crate) const HYPOT_EPS: f64 = f64::from_bits((1023 - 54) << 52);

/// Whether glibc's `hypot` takes its unscaled kernel for `(ax, ay)`.
/// False for every NaN.
#[inline(always)]
pub(crate) fn hypot_in_range(ax: f64, ay: f64) -> bool {
    ax <= HYPOT_LARGE && ay >= HYPOT_TINY && ay > ax * HYPOT_EPS
}

/// glibc's `hypot` kernel for `ax >= ay` in range (its non-FMA build):
/// the rounded square root of the sum of squares, less the correction
/// of Borges' improved hypot algorithm. Evaluated left to right exactly
/// as glibc writes it; `simd::avx2::abs4` is its vector twin.
#[inline(always)]
pub(crate) fn hypot_kernel(ax: f64, ay: f64) -> f64 {
    let h = (ax * ax + ay * ay).sqrt();
    let (t1, t2) = if h <= 2.0 * ay {
        let d = h - ay;
        (ax * (2.0 * d - ax), (d - 2.0 * (ax - ay)) * d)
    } else {
        let d = h - ax;
        (2.0 * d * (ax - 2.0 * ay), (4.0 * d - ay) * ay + d * d)
    };
    h - (t1 + t2) / (2.0 * h)
}

impl Add for Cx {
    type Output = Cx;
    #[inline(always)]
    fn add(self, rhs: Cx) -> Cx {
        Cx::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Cx {
    type Output = Cx;
    #[inline(always)]
    fn sub(self, rhs: Cx) -> Cx {
        Cx::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Cx {
    type Output = Cx;
    #[inline(always)]
    fn mul(self, rhs: Cx) -> Cx {
        Cx::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Cx {
    type Output = Cx;
    #[inline]
    fn div(self, rhs: Cx) -> Cx {
        let d = rhs.norm_sqr();
        Cx::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Mul<f64> for Cx {
    type Output = Cx;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Cx {
        self.scale(rhs)
    }
}

impl Mul<Cx> for f64 {
    type Output = Cx;
    #[inline(always)]
    fn mul(self, rhs: Cx) -> Cx {
        rhs.scale(self)
    }
}

impl Div<f64> for Cx {
    type Output = Cx;
    #[inline(always)]
    fn div(self, rhs: f64) -> Cx {
        Cx::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Cx {
    type Output = Cx;
    #[inline(always)]
    fn neg(self) -> Cx {
        Cx::new(-self.re, -self.im)
    }
}

impl AddAssign for Cx {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Cx) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Cx {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Cx) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Cx {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Cx) {
        *self = *self * rhs;
    }
}

impl DivAssign for Cx {
    #[inline]
    fn div_assign(&mut self, rhs: Cx) {
        *self = *self / rhs;
    }
}

impl Sum for Cx {
    fn sum<I: Iterator<Item = Cx>>(iter: I) -> Cx {
        iter.fold(ZERO, |a, b| a + b)
    }
}

impl From<f64> for Cx {
    #[inline]
    fn from(re: f64) -> Cx {
        Cx::real(re)
    }
}

impl fmt::Debug for Cx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl fmt::Display for Cx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn arithmetic_identities() {
        let a = Cx::new(1.5, -2.0);
        let b = Cx::new(-0.25, 4.0);
        assert!((a + b - b).approx_eq(a, TOL));
        assert!((a * b / b).approx_eq(a, TOL));
        assert!((a * ONE).approx_eq(a, TOL));
        assert!((a + ZERO).approx_eq(a, TOL));
        assert!((-a + a).approx_eq(ZERO, TOL));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!((I * I).approx_eq(Cx::real(-1.0), TOL));
    }

    #[test]
    fn conjugate_and_norm() {
        let a = Cx::new(3.0, 4.0);
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.abs(), 5.0);
        assert!((a * a.conj()).approx_eq(Cx::real(25.0), TOL));
    }

    #[test]
    fn polar_roundtrip() {
        let a = Cx::from_polar(2.0, 0.7);
        assert!((a.abs() - 2.0).abs() < TOL);
        assert!((a.arg() - 0.7).abs() < TOL);
    }

    #[test]
    fn cis_is_unit_modulus() {
        for k in 0..16 {
            let t = k as f64 * std::f64::consts::FRAC_PI_8;
            assert!((Cx::cis(t).abs() - 1.0).abs() < TOL);
        }
    }

    #[test]
    fn mul_conj_matches_definition() {
        let a = Cx::new(1.0, 2.0);
        let b = Cx::new(3.0, -1.0);
        assert!(a.mul_conj(b).approx_eq(a * b.conj(), TOL));
    }

    #[test]
    fn mul_add_matches_definition() {
        let acc = Cx::new(0.5, 0.5);
        let a = Cx::new(1.0, 2.0);
        let b = Cx::new(3.0, -1.0);
        assert!(acc.mul_add(a, b).approx_eq(acc + a * b, TOL));
    }

    #[test]
    fn recip_inverts() {
        let a = Cx::new(0.3, -0.8);
        assert!((a * a.recip()).approx_eq(ONE, TOL));
    }

    #[test]
    fn division_by_zero_produces_non_finite() {
        let a = Cx::new(1.0, 1.0);
        assert!(!(a / ZERO).is_finite());
    }

    #[test]
    fn assignment_operators() {
        let mut a = Cx::new(1.0, 1.0);
        a += Cx::new(1.0, 0.0);
        a -= Cx::new(0.0, 1.0);
        a *= Cx::new(2.0, 0.0);
        a /= Cx::new(2.0, 0.0);
        assert!(a.approx_eq(Cx::new(2.0, 0.0), TOL));
    }

    #[test]
    fn sum_over_iterator() {
        let s: Cx = (0..10).map(|k| Cx::new(k as f64, -(k as f64))).sum();
        assert!(s.approx_eq(Cx::new(45.0, -45.0), TOL));
    }
}
