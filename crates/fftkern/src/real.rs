//! Real-to-complex and complex-to-real transforms.
//!
//! The applications the paper targets use real transforms too ("LAMMPS uses
//! 3-D real and complex transforms for its KSPACE package", §IV-D). An
//! even-length real transform is computed with the classic packing trick:
//! fold the `n` reals into an `n/2` complex signal, run one complex FFT,
//! and untangle the two interleaved half-spectra — half the work of the
//! naive embed-into-complex approach.
//!
//! [`untangle_half_with`] turns a packed half-size spectrum into the
//! `n/2 + 1` non-redundant bins of the length-`n` real transform and
//! [`retangle_half_with`] inverts it; `distfft::real3d` runs them row by
//! row between its complex passes (unnormalized, like every other
//! direction in this crate: a real round trip scales the signal by `n`).

use crate::complex::C64;
use crate::twiddle;

/// Untangles a packed half-size spectrum `Z = FFT_{n/2}(x[2j] + i·x[2j+1])`
/// into the `n/2 + 1` half-spectrum bins of the length-`n` real transform,
/// appended to `out`: `X[k] = E[k] + e^{-2πik/n}·O[k]`, with E/O recovered
/// from Z by symmetry. Looks the length-`n` root table up per call; a
/// caller with many rows of one length fetches [`twiddle::forward_table`]
/// once and calls [`untangle_half_with`].
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

/// Inverse of [`untangle_half_into`]: appends the packed half-size
/// spectrum rebuilt from the `n/2 + 1` half bins, ready for an inverse FFT
/// of length `n/2`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_abs_diff;
    use crate::dft::dft_1d;
    use crate::plan::Direction;

    fn real_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (0.13 * i as f64).sin() + 0.5 * (0.71 * i as f64).cos())
            .collect()
    }

    #[test]
    fn r2c_matches_complex_dft() {
        // The packing trick end to end against the O(n²) oracle: untangling
        // the half-size DFT of the packed pairs gives the real signal's
        // first n/2 + 1 bins, and retangling them gives the packed DFT back.
        for n in [2usize, 4, 8, 12, 30, 64, 100] {
            let x = real_signal(n);
            let packed: Vec<C64> = x.chunks(2).map(|p| C64::new(p[0], p[1])).collect();
            let z = dft_1d(&packed, Direction::Forward);
            let mut half = Vec::new();
            untangle_half_into(&z, n, &mut half);
            let embedded: Vec<C64> = x.iter().map(|&v| C64::real(v)).collect();
            let full = dft_1d(&embedded, Direction::Forward);
            let tol = 1e-8 * n as f64;
            assert!(max_abs_diff(&half, &full[..=n / 2]) < tol, "untangle n={n}");
            let mut back = Vec::new();
            retangle_half_into(&half, n, &mut back);
            assert!(max_abs_diff(&back, &z) < tol, "retangle n={n}");
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
            let mut half = Vec::new();
            untangle_half_into(&z, n, &mut half);
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
            let mut back = Vec::new();
            retangle_half_into(&half, n, &mut back);
            assert_eq!(bits(&back), bits(&want_z), "retangle n={n}");
        }
    }
}
