//! Naive O(N²) discrete Fourier transform — the correctness oracle.
//!
//! Every fast path in this crate (and the distributed transforms built on top
//! of it) is validated against this direct evaluation of the defining sum,
//! equation (1) of the paper.

use crate::complex::C64;
use crate::plan::Direction;

/// Directly evaluates the 1-D DFT of `input`.
///
/// `X[k] = Σ_n x[n]·e^{∓2πi·kn/N}` — minus sign for [`Direction::Forward`],
/// plus for [`Direction::Inverse`]. Unnormalized in both directions, matching
/// the fast paths.
pub fn dft_1d(input: &[C64], dir: Direction) -> Vec<C64> {
    let n = input.len();
    let sign = dir.sign();
    let mut out = vec![C64::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = C64::ZERO;
        for (j, &x) in input.iter().enumerate() {
            // k*j can overflow usize arithmetic only for absurd sizes; the
            // reduction mod n keeps the angle well-conditioned.
            let phase = sign * 2.0 * std::f64::consts::PI * ((k * j) % n) as f64 / n as f64;
            acc += x * C64::expi(phase);
        }
        *o = acc;
    }
    out
}

/// Directly evaluates an m-dimensional DFT of a row-major array.
///
/// `dims` lists the extents slowest-varying first (C order): for a 3-D array
/// `dims = [n0, n1, n2]` the element `(i0, i1, i2)` lives at
/// `i0·n1·n2 + i1·n2 + i2`. This evaluates the full m-dimensional sum of the
/// paper's equation (1) — exponential in nothing, but O((ΠNᵢ)²) in work, so
/// keep it to small test sizes.
#[expect(
    clippy::indexing_slicing,
    reason = "`d` ranges below `m = dims.len()`, the length of every coordinate vector"
)]
pub fn dft_nd(input: &[C64], dims: &[usize], dir: Direction) -> Vec<C64> {
    let total: usize = dims.iter().product();
    assert_eq!(
        input.len(),
        total,
        "input length {} does not match dims {:?}",
        input.len(),
        dims
    );
    let sign = dir.sign();
    let m = dims.len();
    let mut out = vec![C64::ZERO; total];

    // Decode a flat index into per-dimension coordinates (row-major).
    let coords = |mut idx: usize| -> Vec<usize> {
        let mut c = vec![0usize; m];
        for d in (0..m).rev() {
            c[d] = idx % dims[d];
            idx /= dims[d];
        }
        c
    };

    for (kflat, o) in out.iter_mut().enumerate() {
        let k = coords(kflat);
        let mut acc = C64::ZERO;
        for (nflat, &x) in input.iter().enumerate() {
            let nc = coords(nflat);
            let mut phase = 0.0;
            for d in 0..m {
                phase += (k[d] * nc[d]) as f64 / dims[d] as f64;
            }
            acc += x * C64::expi(sign * 2.0 * std::f64::consts::PI * phase);
        }
        *o = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_abs_diff;

    #[test]
    fn dft_of_delta_is_constant() {
        let mut x = vec![C64::ZERO; 8];
        x[0] = C64::ONE;
        let y = dft_1d(&x, Direction::Forward);
        for v in y {
            assert!((v - C64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn dft_of_constant_is_delta() {
        let x = vec![C64::ONE; 8];
        let y = dft_1d(&x, Direction::Forward);
        assert!((y[0] - C64::real(8.0)).abs() < 1e-12);
        for v in &y[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn roundtrip_scales_by_n() {
        let x: Vec<C64> = (0..12).map(|i| C64::new(i as f64, -(i as f64))).collect();
        let y = dft_1d(&x, Direction::Forward);
        let z = dft_1d(&y, Direction::Inverse);
        let scaled: Vec<C64> = x.iter().map(|v| v.scale(12.0)).collect();
        assert!(max_abs_diff(&z, &scaled) < 1e-9);
    }

    #[test]
    fn single_frequency_picks_one_bin() {
        let n = 16;
        let k0 = 3;
        let x: Vec<C64> = (0..n)
            .map(|j| C64::expi(2.0 * std::f64::consts::PI * (k0 * j) as f64 / n as f64))
            .collect();
        let y = dft_1d(&x, Direction::Forward);
        for (k, v) in y.iter().enumerate() {
            if k == k0 {
                assert!((*v - C64::real(n as f64)).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "bin {k} = {v:?}");
            }
        }
    }

    #[test]
    fn nd_matches_separable_1d() {
        // 2-D DFT equals row transforms followed by column transforms.
        let (n0, n1) = (3, 4);
        let x: Vec<C64> = (0..n0 * n1)
            .map(|i| C64::new((i * i % 7) as f64, (i % 5) as f64))
            .collect();
        let full = dft_nd(&x, &[n0, n1], Direction::Forward);

        // Rows first.
        let mut rows = vec![C64::ZERO; n0 * n1];
        for r in 0..n0 {
            let row: Vec<C64> = x[r * n1..(r + 1) * n1].to_vec();
            let t = dft_1d(&row, Direction::Forward);
            rows[r * n1..(r + 1) * n1].copy_from_slice(&t);
        }
        // Then columns.
        let mut out = vec![C64::ZERO; n0 * n1];
        for c in 0..n1 {
            let col: Vec<C64> = (0..n0).map(|r| rows[r * n1 + c]).collect();
            let t = dft_1d(&col, Direction::Forward);
            for r in 0..n0 {
                out[r * n1 + c] = t[r];
            }
        }
        assert!(max_abs_diff(&full, &out) < 1e-9);
    }

    #[test]
    fn nd_roundtrip() {
        let dims = [2usize, 3, 4];
        let total: usize = dims.iter().product();
        let x: Vec<C64> = (0..total)
            .map(|i| C64::new((i % 3) as f64 - 1.0, (i % 4) as f64))
            .collect();
        let y = dft_nd(&x, &dims, Direction::Forward);
        let z = dft_nd(&y, &dims, Direction::Inverse);
        let scaled: Vec<C64> = x.iter().map(|v| v.scale(total as f64)).collect();
        assert!(max_abs_diff(&z, &scaled) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "does not match dims")]
    fn nd_rejects_bad_dims() {
        let x = vec![C64::ZERO; 5];
        let _ = dft_nd(&x, &[2, 3], Direction::Forward);
    }
}
