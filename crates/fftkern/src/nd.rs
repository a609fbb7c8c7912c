//! Convenience entry points and spectral utilities over whole arrays.
//!
//! The one-shot helpers route through the process-wide [`plan_cache`]: the
//! first call for a shape builds (and interns) the plan, every later call
//! for the same shape is a map lookup. Repeated ad-hoc transforms — test
//! oracles, spectral post-processing loops — get warm-path cost without
//! threading a plan handle around.

use crate::cache::plan_cache;
use crate::complex::C64;
use crate::plan::Direction;

/// One-shot in-place 3-D transform of a row-major `n0 × n1 × n2` array. A
/// unit extent makes it a 1-D or 2-D transform.
pub fn fft_3d(data: &mut [C64], n0: usize, n1: usize, n2: usize, dir: Direction) {
    plan_cache().plan3d(n0, n1, n2).execute(data, dir);
}

/// Applies the `1/N` normalization that turns the unnormalized inverse into a
/// true inverse.
pub fn normalize(data: &mut [C64], total_size: usize) {
    let s = 1.0 / total_size as f64;
    for v in data.iter_mut() {
        *v = v.scale(s);
    }
}

/// Sum of squared magnitudes — the "energy" side of Parseval's theorem:
/// `Σ|x[n]|² = (1/N)·Σ|X[k]|²` for an unnormalized forward transform.
pub fn energy(data: &[C64]) -> f64 {
    data.iter().map(|v| v.norm_sqr()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_abs_diff;

    fn signal(n: usize) -> Vec<C64> {
        (0..n)
            .map(|i| C64::new((0.11 * i as f64).sin(), (0.07 * i as f64).cos()))
            .collect()
    }

    #[test]
    fn normalized_roundtrip_is_identity() {
        let mut x = signal(60);
        let orig = x.clone();
        fft_3d(&mut x, 1, 1, 60, Direction::Forward);
        fft_3d(&mut x, 1, 1, 60, Direction::Inverse);
        normalize(&mut x, 60);
        assert!(max_abs_diff(&x, &orig) < 1e-10 * 60.0);
    }

    #[test]
    fn parseval_holds_1d() {
        let x = signal(128);
        let time_energy = energy(&x);
        let mut spec = x;
        fft_3d(&mut spec, 1, 1, 128, Direction::Forward);
        let freq_energy = energy(&spec) / 128.0;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0));
    }

    #[test]
    fn parseval_holds_3d() {
        let (a, b, c) = (4usize, 5usize, 8usize);
        let x = signal(a * b * c);
        let time_energy = energy(&x);
        let mut spec = x;
        fft_3d(&mut spec, a, b, c, Direction::Forward);
        let freq_energy = energy(&spec) / (a * b * c) as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0));
    }

    #[test]
    fn linearity_of_fft() {
        let n = 48;
        let x = signal(n);
        let y: Vec<C64> = (0..n).map(|i| C64::new(i as f64, -(i as f64))).collect();
        let alpha = C64::new(2.0, -0.5);

        let mut combo: Vec<C64> = x.iter().zip(&y).map(|(a, b)| *a * alpha + *b).collect();
        fft_3d(&mut combo, 1, 1, n, Direction::Forward);

        let mut fx = x;
        fft_3d(&mut fx, 1, 1, n, Direction::Forward);
        let mut fy = y;
        fft_3d(&mut fy, 1, 1, n, Direction::Forward);
        let expect: Vec<C64> = fx.iter().zip(&fy).map(|(a, b)| *a * alpha + *b).collect();
        assert!(max_abs_diff(&combo, &expect) < 1e-8 * n as f64);
    }
}
