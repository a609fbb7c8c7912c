//! Iterative radix-2 Cooley–Tukey transform for power-of-two sizes.
//!
//! A **test reference**, not an engine: every power-of-two length runs on
//! the Stockham autosort kernel in [`stockham`](crate::stockham)
//! (radix-8/4/2, no bit-reversal pass), which Bluestein's algorithm also
//! uses for its inner convolutions, and no plan routes here. `Radix2Plan`
//! stays as the independent oracle the equivalence suites call directly —
//! the only one for 1024–4096 points, where the O(N²) DFT is too slow.

use crate::complex::C64;
use crate::plan::Direction;
use crate::twiddle;
use std::sync::Arc;

/// Precomputed state for power-of-two FFTs of a fixed size.
#[derive(Debug, Clone)]
pub struct Radix2Plan {
    n: usize,
    /// Shared forward twiddles `w[j] = e^{-2πi·j/n}`; the butterfly loops
    /// only read `j < n/2`.
    twiddles: Arc<[C64]>,
    /// Bit-reversal permutation of `0..n`.
    bitrev: Vec<u32>,
}

impl Radix2Plan {
    /// Builds a plan for size `n`, which must be a power of two (and fit the
    /// `u32` permutation table, i.e. `n < 2³²`).
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "Radix2Plan requires a power of two, got {n}"
        );
        assert!(n < (1usize << 32), "size too large for permutation table");
        let twiddles = twiddle::forward_table(n);
        let bits = n.trailing_zeros();
        let bitrev = (0..n as u32)
            .map(|i| {
                if bits == 0 {
                    0
                } else {
                    i.reverse_bits() >> (32 - bits)
                }
            })
            .collect();
        Radix2Plan {
            n,
            twiddles,
            bitrev,
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

    /// In-place unnormalized transform of `data` (length must equal `n`).
    #[expect(
        clippy::indexing_slicing,
        reason = "`data.len() == n` is asserted, `bitrev` and the root table hold `n` entries, `k + half < n` and `tw_idx < n / 2`"
    )]
    pub fn execute(&self, data: &mut [C64], dir: Direction) {
        assert_eq!(data.len(), self.n, "buffer length does not match plan size");
        if self.n <= 1 {
            return;
        }

        // Bit-reversal permutation: swap each index with its reversal once.
        for i in 0..self.n {
            let j = self.bitrev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }

        // Butterfly stages. `half` is the butterfly span at the current
        // stage; the twiddle stride through the shared table is n/(2*half).
        let inverse = matches!(dir, Direction::Inverse);
        let mut half = 1usize;
        while half < self.n {
            let step = self.n / (2 * half);
            for start in (0..self.n).step_by(2 * half) {
                let mut tw_idx = 0usize;
                for k in start..start + half {
                    let w = if inverse {
                        self.twiddles[tw_idx].conj()
                    } else {
                        self.twiddles[tw_idx]
                    };
                    let t = data[k + half] * w;
                    let u = data[k];
                    data[k] = u + t;
                    data[k + half] = u - t;
                    tw_idx += step;
                }
            }
            half *= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_abs_diff;
    use crate::dft::dft_1d;

    fn ramp(n: usize) -> Vec<C64> {
        (0..n)
            .map(|i| C64::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect()
    }

    #[test]
    fn matches_dft_for_all_pow2_up_to_256() {
        for log in 0..=8 {
            let n = 1usize << log;
            let plan = Radix2Plan::new(n);
            let x = ramp(n);
            let mut fast = x.clone();
            plan.execute(&mut fast, Direction::Forward);
            let slow = dft_1d(&x, Direction::Forward);
            assert!(
                max_abs_diff(&fast, &slow) < 1e-8 * n as f64,
                "mismatch at n={n}"
            );
        }
    }

    #[test]
    fn inverse_matches_dft() {
        let n = 64;
        let plan = Radix2Plan::new(n);
        let x = ramp(n);
        let mut fast = x.clone();
        plan.execute(&mut fast, Direction::Inverse);
        let slow = dft_1d(&x, Direction::Inverse);
        assert!(max_abs_diff(&fast, &slow) < 1e-9 * n as f64);
    }

    #[test]
    fn roundtrip_scales_by_n() {
        let n = 128;
        let plan = Radix2Plan::new(n);
        let x = ramp(n);
        let mut y = x.clone();
        plan.execute(&mut y, Direction::Forward);
        plan.execute(&mut y, Direction::Inverse);
        let expected: Vec<C64> = x.iter().map(|v| v.scale(n as f64)).collect();
        assert!(max_abs_diff(&y, &expected) < 1e-9 * n as f64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2() {
        let _ = Radix2Plan::new(12);
    }

    #[test]
    fn size_one_is_identity() {
        let plan = Radix2Plan::new(1);
        let mut x = vec![C64::new(3.0, -4.0)];
        plan.execute(&mut x, Direction::Forward);
        assert_eq!(x[0], C64::new(3.0, -4.0));
    }
}
