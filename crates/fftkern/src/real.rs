//! Real-to-complex and complex-to-real transforms.
//!
//! The applications the paper targets use real transforms too ("LAMMPS uses
//! 3-D real and complex transforms for its KSPACE package", §IV-D). An
//! even-length real transform is computed with the classic packing trick:
//! fold the `n` reals into an `n/2` complex signal, run one complex FFT,
//! and untangle the two interleaved half-spectra — half the work of the
//! naive embed-into-complex approach.
//!
//! `r2c_1d` returns the non-redundant half spectrum (`n/2 + 1` bins);
//! `c2r_1d` inverts it (unnormalized, like every other direction in this
//! crate: `c2r(r2c(x)) == n·x`).

use crate::complex::C64;
use crate::plan::{Direction, Plan1d};
use crate::twiddle;

/// Forward real-to-complex transform: `n` reals → `n/2 + 1` complex bins
/// (the remaining bins are the conjugate mirror). `n` must be even and ≥ 2.
#[expect(
    clippy::indexing_slicing,
    reason = "`n = input.len()` is even, so `2j + 1 < n` for every `j < n / 2`"
)]
pub fn r2c_1d(input: &[f64]) -> Vec<C64> {
    let n = input.len();
    assert!(
        n >= 2 && n.is_multiple_of(2),
        "r2c requires even n >= 2, got {n}"
    );
    let h = n / 2;

    // Pack pairs (x[2j], x[2j+1]) as complex values and transform at n/2.
    let packed: Vec<C64> = (0..h)
        .map(|j| C64::new(input[2 * j], input[2 * j + 1]))
        .collect();
    let mut z = packed;
    Plan1d::contiguous(h, 1).execute_inplace(&mut z, Direction::Forward);
    untangle_half(&z, n)
}

/// Untangles a packed half-size spectrum `Z = FFT_{n/2}(x[2j] + i·x[2j+1])`
/// into the `n/2 + 1` half-spectrum bins of the length-`n` real transform:
/// `X[k] = E[k] + e^{-2πik/n}·O[k]`, with E/O recovered from Z by symmetry.
/// The row-local kernel of every r2c transform, including the distributed
/// 3-D one.
pub fn untangle_half(z: &[C64], n: usize) -> Vec<C64> {
    let mut out = Vec::with_capacity(n / 2 + 1);
    untangle_half_into(z, n, &mut out);
    out
}

/// Appending form of [`untangle_half`] for callers that untangle many rows
/// into one buffer — no per-row allocation. Looks the length-`n` root table
/// up per call; a caller with many rows of one length fetches
/// [`twiddle::forward_table`] once and calls [`untangle_half_with`].
pub fn untangle_half_into(z: &[C64], n: usize, out: &mut Vec<C64>) {
    untangle_half_with(z, &twiddle::forward_table(n), out);
}

/// [`untangle_half_into`] over a caller-held root table
/// (`roots = forward_table(n)`, so `n == roots.len()`): the row-local
/// kernel of the distributed r2c pipeline, one table read per bin.
#[expect(
    clippy::indexing_slicing,
    reason = "`z.len() == h` is asserted, with `h >= 1` for the even length `n = roots.len()`, and `h < n`"
)]
pub fn untangle_half_with(z: &[C64], roots: &[C64], out: &mut Vec<C64>) {
    let h = roots.len() / 2;
    assert_eq!(z.len(), h, "packed spectrum must have n/2 bins");
    out.reserve(h + 1);
    let bin = |zk: C64, zmk: C64, w: C64| {
        let zmk = zmk.conj();
        let e = (zk + zmk).scale(0.5);
        let o = (zk - zmk).scale(0.5) * C64::new(0.0, -1.0);
        e + w * o
    };
    // Bins 0 and h both pair z[0] with itself; bin k in between pairs
    // z[k] with z[h − k], read walking `z[1..]` forward and backward.
    out.push(bin(z[0], z[0], roots[0]));
    let pairs = z[1..].iter().zip(z[1..].iter().rev());
    out.extend(
        pairs
            .zip(&roots[1..h])
            .map(|((&zk, &zmk), &w)| bin(zk, zmk, w)),
    );
    out.push(bin(z[0], z[0], roots[h]));
}

/// Inverse of [`untangle_half`]: rebuilds the packed half-size spectrum from
/// the `n/2 + 1` half bins, ready for an inverse FFT of length `n/2`.
pub fn retangle_half(spectrum: &[C64], n: usize) -> Vec<C64> {
    let mut z = Vec::with_capacity(n / 2);
    retangle_half_into(spectrum, n, &mut z);
    z
}

/// Appending form of [`retangle_half`] — see [`untangle_half_into`].
pub fn retangle_half_into(spectrum: &[C64], n: usize, z: &mut Vec<C64>) {
    retangle_half_with(spectrum, &twiddle::forward_table(n), z);
}

/// [`retangle_half_into`] over a caller-held root table — see
/// [`untangle_half_with`].
#[expect(
    clippy::indexing_slicing,
    reason = "`spectrum.len() == h + 1` is asserted and `k < h`"
)]
pub fn retangle_half_with(spectrum: &[C64], roots: &[C64], z: &mut Vec<C64>) {
    let h = roots.len() / 2;
    assert_eq!(spectrum.len(), h + 1, "half spectrum must have n/2+1 bins");
    z.reserve(h);
    for (k, w) in roots.iter().enumerate().take(h) {
        let xk = spectrum[k];
        let xmk = spectrum[h - k].conj();
        let e = (xk + xmk).scale(0.5);
        // O[k] = (X[k] − conj(X[h−k]))/2 · w^{−k}, with w = e^{−2πi/n}.
        let o = (xk - xmk).scale(0.5) * w.conj();
        z.push(e + o * C64::I);
    }
}

/// Inverse complex-to-real transform: `n/2 + 1` half-spectrum bins →
/// `n` reals, unnormalized (scaled by `n` relative to the original signal).
pub fn c2r_1d(spectrum: &[C64], n: usize) -> Vec<f64> {
    assert!(
        n >= 2 && n.is_multiple_of(2),
        "c2r requires even n >= 2, got {n}"
    );
    assert_eq!(
        spectrum.len(),
        n / 2 + 1,
        "half spectrum must have n/2+1 bins"
    );
    let h = n / 2;

    let mut z = retangle_half(spectrum, n);
    Plan1d::contiguous(h, 1).execute_inplace(&mut z, Direction::Inverse);

    // Unpack: the inverse of the forward packing, times 2 because the
    // half-size transform carries half the normalization.
    let mut out = Vec::with_capacity(n);
    for v in z {
        out.push(v.re * 2.0);
        out.push(v.im * 2.0);
    }
    out
}

/// Full real spectrum via Hermitian extension — handy for verification.
#[expect(
    clippy::indexing_slicing,
    reason = "`half.len() == n / 2 + 1` is asserted and `n - k <= n / 2` for `k > n / 2`"
)]
pub fn extend_hermitian(half: &[C64], n: usize) -> Vec<C64> {
    assert_eq!(half.len(), n / 2 + 1);
    let mut full = half.to_vec();
    for k in (n / 2 + 1)..n {
        full.push(half[n - k].conj());
    }
    full
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_abs_diff;
    use crate::dft::dft_1d;

    fn real_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (0.13 * i as f64).sin() + 0.5 * (0.71 * i as f64).cos())
            .collect()
    }

    #[test]
    fn r2c_matches_complex_dft() {
        for n in [2usize, 4, 8, 12, 30, 64, 100] {
            let x = real_signal(n);
            let half = r2c_1d(&x);
            assert_eq!(half.len(), n / 2 + 1);
            let embedded: Vec<C64> = x.iter().map(|&v| C64::real(v)).collect();
            let full = dft_1d(&embedded, Direction::Forward);
            assert!(
                max_abs_diff(&half, &full[..n / 2 + 1]) < 1e-8 * n as f64,
                "mismatch at n={n}"
            );
        }
    }

    #[test]
    fn table_twiddles_are_bit_identical_to_the_expi_formula() {
        // The untangle used to evaluate `expi(∓2πk/n)` per bin; the root
        // table is built from the same expression, and conjugation must
        // reproduce the `+` sign exactly (sin is odd in libm, −0.0 aside).
        use std::f64::consts::PI;
        let bits = |v: &[C64]| -> Vec<(u64, u64)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        for n in [2usize, 4, 6, 60, 64, 100, 250] {
            let h = n / 2;
            let z: Vec<C64> = (0..h)
                .map(|i| C64::new((0.9 * i as f64).sin() + 0.3, (0.37 * i as f64).cos()))
                .collect();
            let want_half: Vec<C64> = (0..=h)
                .map(|k| {
                    let zk = z[k % h];
                    let zmk = z[(h - k % h) % h].conj();
                    let e = (zk + zmk).scale(0.5);
                    let o = (zk - zmk).scale(0.5) * C64::new(0.0, -1.0);
                    e + C64::expi(-2.0 * PI * k as f64 / n as f64) * o
                })
                .collect();
            let half = untangle_half(&z, n);
            assert_eq!(bits(&half), bits(&want_half), "untangle n={n}");

            let want_z: Vec<C64> = (0..h)
                .map(|k| {
                    let xk = half[k];
                    let xmk = half[h - k].conj();
                    let e = (xk + xmk).scale(0.5);
                    let o = (xk - xmk).scale(0.5) * C64::expi(2.0 * PI * k as f64 / n as f64);
                    e + o * C64::I
                })
                .collect();
            assert_eq!(
                bits(&retangle_half(&half, n)),
                bits(&want_z),
                "retangle n={n}"
            );
        }
    }

    #[test]
    fn hermitian_extension_matches_full_dft() {
        let n = 16;
        let x = real_signal(n);
        let full = extend_hermitian(&r2c_1d(&x), n);
        let embedded: Vec<C64> = x.iter().map(|&v| C64::real(v)).collect();
        let reference = dft_1d(&embedded, Direction::Forward);
        assert!(max_abs_diff(&full, &reference) < 1e-9 * n as f64);
    }

    #[test]
    fn r2c_c2r_roundtrip_scales_by_n() {
        for n in [4usize, 10, 32, 64] {
            let x = real_signal(n);
            let back = c2r_1d(&r2c_1d(&x), n);
            for (got, want) in back.iter().zip(&x) {
                assert!(
                    (got - want * n as f64).abs() < 1e-8 * n as f64,
                    "n={n}: {got} vs {}",
                    want * n as f64
                );
            }
        }
    }

    #[test]
    fn dc_and_nyquist_bins_are_real() {
        let n = 32;
        let half = r2c_1d(&real_signal(n));
        assert!(half[0].im.abs() < 1e-10, "DC bin must be real");
        assert!(half[n / 2].im.abs() < 1e-10, "Nyquist bin must be real");
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_length_rejected() {
        let _ = r2c_1d(&[1.0, 2.0, 3.0]);
    }
}
