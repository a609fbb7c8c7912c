//! Bluestein's chirp-z algorithm for arbitrary transform sizes.
//!
//! Expresses a DFT of any length `N` (prime included) as a circular
//! convolution of length `M ≥ 2N-1` with `M` a power of two, so the
//! power-of-two engine (Stockham autosort) does all the heavy lifting. This
//! keeps the local FFT engine total: any grid dimension a user asks for is
//! supported, like FFTW.

use crate::complex::C64;
use crate::plan::Direction;
use crate::stockham::StockhamPlan;

/// Precomputed state for an arbitrary-size transform.
#[derive(Debug, Clone)]
pub struct BluesteinPlan {
    n: usize,
    m: usize,
    /// Forward chirp `c[j] = e^{-iπ·j²/n}` for `j < n`.
    chirp: Vec<C64>,
    /// Forward-direction frequency-domain kernel: FFT of the symmetric
    /// extension of `conj(chirp)` padded to length `m`.
    kernel_fwd: Vec<C64>,
    /// Inverse-direction kernel (chirp conjugated).
    kernel_inv: Vec<C64>,
    inner: StockhamPlan,
}

impl BluesteinPlan {
    /// Builds a plan for any `n ≥ 1`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`j < n <= m`: `chirp` holds `n` entries and `b` holds `m >= 2n - 1`, so `m - j` is in range"
    )]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "BluesteinPlan requires n >= 1");
        let m = (2 * n - 1).next_power_of_two();
        let inner = StockhamPlan::new(m);

        // chirp[j] = e^{-iπ j²/n}. Reduce j² modulo 2n so the phase argument
        // stays small and well-conditioned even for large n.
        let chirp: Vec<C64> = (0..n)
            .map(|j| {
                let q = (j * j) % (2 * n);
                C64::expi(-std::f64::consts::PI * q as f64 / n as f64)
            })
            .collect();

        let build_kernel = |conj: bool| -> Vec<C64> {
            let mut b = vec![C64::ZERO; m];
            for j in 0..n {
                let c = if conj { chirp[j].conj() } else { chirp[j] };
                b[j] = c;
                if j > 0 {
                    b[m - j] = c; // symmetric wrap for negative indices
                }
            }
            inner.execute(&mut b, Direction::Forward);
            b
        };
        // Forward DFT multiplies by chirp; the convolution kernel is the
        // conjugate chirp (and vice versa for the inverse direction).
        let kernel_fwd = build_kernel(true);
        let kernel_inv = build_kernel(false);

        BluesteinPlan {
            n,
            m,
            chirp,
            kernel_fwd,
            kernel_inv,
            inner,
        }
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for the degenerate size-1 plan.
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// Length of the internal power-of-two convolution.
    pub fn conv_len(&self) -> usize {
        self.m
    }

    /// Scratch elements [`execute_with_scratch`] needs: the convolution
    /// buffer plus the inner Stockham ping-pong buffer (`2·conv_len`).
    ///
    /// [`execute_with_scratch`]: BluesteinPlan::execute_with_scratch
    pub fn scratch_elems(&self) -> usize {
        2 * self.m
    }

    /// In-place unnormalized transform of `data` (length must equal `n`).
    pub fn execute(&self, data: &mut [C64], dir: Direction) {
        let mut scratch = vec![C64::ZERO; self.scratch_elems()];
        self.execute_with_scratch(data, dir, &mut scratch);
    }

    /// In-place transform reusing a caller-provided buffer of at least
    /// [`scratch_elems`](BluesteinPlan::scratch_elems) elements — avoids the
    /// per-row allocation in batched executions.
    #[expect(
        clippy::indexing_slicing,
        reason = "`data.len() == n` and `scratch.len() >= 2m` are asserted, and `j, k < n <= m` index `chirp` and `a`"
    )]
    pub fn execute_with_scratch(&self, data: &mut [C64], dir: Direction, scratch: &mut [C64]) {
        assert_eq!(data.len(), self.n);
        assert!(
            scratch.len() >= self.scratch_elems(),
            "scratch smaller than 2*conv_len"
        );
        if self.n == 1 {
            return;
        }
        let inverse = matches!(dir, Direction::Inverse);
        let kernel = if inverse {
            &self.kernel_inv
        } else {
            &self.kernel_fwd
        };

        // a[j] = x[j] · chirp[j]  (conjugated chirp for the inverse).
        let (a, work) = scratch[..2 * self.m].split_at_mut(self.m);
        for v in a.iter_mut() {
            *v = C64::ZERO;
        }
        for j in 0..self.n {
            let c = if inverse {
                self.chirp[j].conj()
            } else {
                self.chirp[j]
            };
            a[j] = data[j] * c;
        }

        // Circular convolution via the Stockham engine.
        self.inner.execute_scratch(a, Direction::Forward, work);
        for (av, kv) in a.iter_mut().zip(kernel) {
            *av *= *kv;
        }
        self.inner.execute_scratch(a, Direction::Inverse, work);
        let scale = 1.0 / self.m as f64;

        // X[k] = chirp[k] · conv[k] / m.
        for k in 0..self.n {
            let c = if inverse {
                self.chirp[k].conj()
            } else {
                self.chirp[k]
            };
            data[k] = a[k].scale(scale) * c;
        }
    }

    /// Transforms `w` lines at once on a `[conv_len][w]` panel whose first
    /// `n` rows hold the data (element `j` of line `l` at `x[j·w + l]`; rows
    /// `n..conv_len` are overwritten). The chirp, kernel and scale·chirp
    /// passes are elementwise with one factor per row, and the two inner
    /// transforms are [`StockhamPlan::execute_interleaved`], so lane `l` sees
    /// the operation sequence of [`execute_with_scratch`] on a lone line.
    /// Returns `(result, other)` like the inner engine: the first `n` rows
    /// of `result` are the transformed lines.
    ///
    /// [`execute_with_scratch`]: BluesteinPlan::execute_with_scratch
    pub fn execute_interleaved<'a>(
        &self,
        x: &'a mut [C64],
        y: &'a mut [C64],
        w: usize,
        dir: Direction,
    ) -> (&'a mut [C64], &'a mut [C64]) {
        assert_eq!(x.len(), self.m * w, "panel is not conv_len × w");
        if self.n == 1 {
            return (x, y);
        }
        let inverse = matches!(dir, Direction::Inverse);
        let kernel = if inverse {
            &self.kernel_inv
        } else {
            &self.kernel_fwd
        };
        let cj = |c: C64| if inverse { c.conj() } else { c };
        let (head, pad) = x.split_at_mut(self.n * w);
        for (row, &c) in head.chunks_exact_mut(w).zip(&self.chirp) {
            let c = cj(c);
            row.iter_mut().for_each(|v| *v *= c);
        }
        pad.fill(C64::ZERO);
        let (a, work) = self.inner.execute_interleaved(x, y, w, Direction::Forward);
        for (row, kv) in a.chunks_exact_mut(w).zip(kernel) {
            row.iter_mut().for_each(|v| *v *= *kv);
        }
        let (a, work) = self
            .inner
            .execute_interleaved(a, work, w, Direction::Inverse);
        let scale = 1.0 / self.m as f64;
        for (row, &c) in a.chunks_exact_mut(w).zip(&self.chirp) {
            let c = cj(c);
            row.iter_mut().for_each(|v| *v = v.scale(scale) * c);
        }
        (a, work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_abs_diff;
    use crate::dft::dft_1d;

    fn signal(n: usize) -> Vec<C64> {
        (0..n)
            .map(|i| C64::new((0.9 * i as f64).cos(), (0.31 * i as f64).sin()))
            .collect()
    }

    #[test]
    fn matches_dft_for_primes_and_odd_sizes() {
        for n in [1usize, 2, 3, 11, 13, 17, 19, 23, 29, 31, 97, 101] {
            let plan = BluesteinPlan::new(n);
            let x = signal(n);
            let mut fast = x.clone();
            plan.execute(&mut fast, Direction::Forward);
            let slow = dft_1d(&x, Direction::Forward);
            assert!(
                max_abs_diff(&fast, &slow) < 1e-7 * (n as f64).max(1.0),
                "mismatch at n={n}"
            );
        }
    }

    #[test]
    fn matches_dft_for_composite_non_smooth() {
        for n in [22usize, 26, 33, 39, 55, 121] {
            let plan = BluesteinPlan::new(n);
            let x = signal(n);
            let mut fast = x.clone();
            plan.execute(&mut fast, Direction::Forward);
            let slow = dft_1d(&x, Direction::Forward);
            assert!(max_abs_diff(&fast, &slow) < 1e-7 * n as f64, "n={n}");
        }
    }

    #[test]
    fn inverse_roundtrip() {
        for n in [13usize, 31, 47] {
            let plan = BluesteinPlan::new(n);
            let x = signal(n);
            let mut y = x.clone();
            plan.execute(&mut y, Direction::Forward);
            plan.execute(&mut y, Direction::Inverse);
            let expected: Vec<C64> = x.iter().map(|v| v.scale(n as f64)).collect();
            assert!(max_abs_diff(&y, &expected) < 1e-7 * n as f64, "n={n}");
        }
    }

    #[test]
    fn conv_length_is_padded_power_of_two() {
        let plan = BluesteinPlan::new(13);
        assert!(plan.conv_len().is_power_of_two());
        assert!(plan.conv_len() >= 2 * 13 - 1);
    }
}
