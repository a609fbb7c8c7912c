//! Double-precision complex arithmetic.
//!
//! The paper's experiments are complex-to-complex transforms on the
//! "double-complex datatype, i.e. 16 bytes" (§III). [`C64`] is exactly that:
//! two `f64` fields, `#[repr(C)]`, 16 bytes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number (16 bytes, matching the paper's
/// double-complex datatype).
///
/// ```
/// use fftkern::C64;
/// let z = C64::new(1.0, 2.0) * C64::new(3.0, -1.0);
/// assert_eq!(z, C64::new(5.0, 5.0));
/// assert!((C64::expi(std::f64::consts::PI).re + 1.0).abs() < 1e-15);
/// ```
#[derive(Clone, Copy, Default, PartialEq)]
#[repr(C)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// The additive identity.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: C64 = C64 { re: 0.0, im: 1.0 };

    /// Size of one element in bytes (the constant `16` appearing in the
    /// paper's bandwidth model, equations (2)–(5)).
    pub const BYTES: usize = 16;

    /// Creates a complex number from real and imaginary parts.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline(always)]
    pub const fn real(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// Returns `e^{i·theta}` — a point on the unit circle.
    #[inline]
    pub fn expi(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        C64 { re: c, im: s }
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        C64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `|z|²`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase angle) in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplication by a real scalar.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        C64 {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Multiplicative inverse. Returns NaNs for zero, like `1.0 / 0.0`.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        C64 {
            re: self.re / d,
            im: -self.im / d,
        }
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline(always)]
    fn add(self, rhs: C64) -> C64 {
        C64 {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline(always)]
    fn sub(self, rhs: C64) -> C64 {
        C64 {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline(always)]
    fn mul(self, rhs: C64) -> C64 {
        C64 {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    #[inline(always)]
    fn mul(self, rhs: f64) -> C64 {
        self.scale(rhs)
    }
}

impl Div for C64 {
    type Output = C64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w = z * w^{-1} is the definition
    fn div(self, rhs: C64) -> C64 {
        self * rhs.recip()
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline(always)]
    fn neg(self) -> C64 {
        C64 {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl AddAssign for C64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: C64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for C64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: C64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for C64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: C64) {
        *self = *self * rhs;
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, |a, b| a + b)
    }
}

impl From<f64> for C64 {
    #[inline]
    fn from(re: f64) -> Self {
        C64::real(re)
    }
}

impl fmt::Debug for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Maximum absolute component-wise difference between two complex slices.
/// The error metric used throughout the test suite. A NaN on either side
/// makes the result NaN, so no `err < tol` check can pass over one.
pub fn max_abs_diff(a: &[C64], b: &[C64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch in max_abs_diff");
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, |m, d| if d.is_nan() || d > m { d } else { m })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_16_bytes() {
        assert_eq!(std::mem::size_of::<C64>(), C64::BYTES);
        assert_eq!(std::mem::align_of::<C64>(), 8);
    }

    #[test]
    fn basic_arithmetic() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(3.0, -1.0);
        assert_eq!(a + b, C64::new(4.0, 1.0));
        assert_eq!(a - b, C64::new(-2.0, 3.0));
        // (1+2i)(3-i) = 3 - i + 6i - 2i^2 = 5 + 5i
        assert_eq!(a * b, C64::new(5.0, 5.0));
        assert_eq!(-a, C64::new(-1.0, -2.0));
        assert_eq!(a.conj(), C64::new(1.0, -2.0));
        assert_eq!(a.norm_sqr(), 5.0);
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = C64::new(1.5, -2.25);
        let b = C64::new(-0.5, 0.75);
        let q = (a * b) / b;
        assert!((q - a).abs() < 1e-12);
    }

    #[test]
    fn expi_is_on_unit_circle() {
        for k in 0..32 {
            let theta = 2.0 * std::f64::consts::PI * k as f64 / 32.0;
            let z = C64::expi(theta);
            assert!((z.abs() - 1.0).abs() < 1e-14);
            assert!(
                (z.arg() - theta.rem_euclid(2.0 * std::f64::consts::PI)).abs() < 1e-10
                    || (z.arg() + 2.0 * std::f64::consts::PI
                        - theta.rem_euclid(2.0 * std::f64::consts::PI))
                    .abs()
                        < 1e-10
            );
        }
    }

    #[test]
    fn sum_folds_correctly() {
        let v = [C64::new(1.0, 1.0); 10];
        let s: C64 = v.iter().copied().sum();
        assert_eq!(s, C64::new(10.0, 10.0));
    }

    #[test]
    fn error_metrics() {
        let a = vec![C64::ONE, C64::I];
        let b = vec![C64::ONE, C64::I];
        assert_eq!(max_abs_diff(&a, &b), 0.0);
        let c = vec![C64::ONE, C64::ZERO];
        assert!((max_abs_diff(&a, &c) - 1.0).abs() < 1e-15);
        // A NaN anywhere poisons the metric instead of being skipped.
        let nan = C64::new(f64::NAN, 0.0);
        let (nan_first, nan_last) = ([nan, C64::I], [C64::ONE, nan]);
        assert!(max_abs_diff(&nan_first, &c).is_nan());
        assert!(max_abs_diff(&c, &nan_last).is_nan());
    }
}
