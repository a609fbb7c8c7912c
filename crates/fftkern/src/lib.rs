// `unsafe_code` is `deny`, not `forbid`, in this package's `[lints]`: the
// SIMD butterfly kernels in `simd.rs` (raw vector loads/stores +
// feature-gated entry) and the test-only counting allocator in
// `counting.rs` are the sanctioned `unsafe` perimeter, each opened with a
// module-level allow; `unsafe` anywhere else in the crate still fails the
// build (DESIGN.md §13).
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::indexing_slicing)]
#![warn(missing_docs)]
//! # fftkern — local FFT engine
//!
//! A from-scratch implementation of the single-device FFT libraries the paper
//! relies on (cuFFT, rocFFT, FFTW). Parallel FFT libraries delegate all local
//! 1-D/2-D computation to such a library (paper, §II: "Parallel FFT algorithms
//! rely on single-device libraries for their local 1-D or 2-D computation").
//!
//! Provides:
//!
//! * [`C64`] — double-precision complex numbers (the paper's 16-byte
//!   "double-complex" datatype).
//! * [`Plan1d`] — batched, strided 1-D transforms modeled after
//!   `cufftPlanMany`: arbitrary `batch`, `stride` and `dist` so that both the
//!   *contiguous (transposed)* and *strided* local-FFT modes of the paper
//!   (Figs. 6, 7, 10) are expressible.
//! * [`Plan3d`] — the local 3-D transform.
//! * [`StockhamPlan`] — the workhorse for every 2/3/5/7-smooth size: a
//!   Stockham autosort engine with radix-8/4/2 and radix-3/5/7 butterflies
//!   and no digit-reversal pass.
//! * Bluestein's chirp-z algorithm for every other (including prime) size.
//! * [`real`] — real-to-complex / complex-to-real transforms via the
//!   packed-complex trick (the "real transforms" LAMMPS KSPACE uses, §IV-D).
//! * [`dft`] — a naive O(N²) reference DFT used as the correctness oracle.
//! * [`kernel_model`] — an analytic kernel-time model for batched FFT calls on
//!   a GPU profile (V100 / MI100 / host), including the strided-input penalty
//!   the paper observes in Fig. 10.
//!
//! Transforms follow the cuFFT/FFTW convention: both directions are
//! unnormalized, so a forward+inverse round trip scales the data by `N`.

pub mod bluestein;
pub mod cache;
pub mod complex;
pub mod counting;
pub mod dft;
pub mod kernel_model;
pub mod nd;
pub mod plan;
pub mod radix;
pub mod real;
pub mod simd;
pub mod stockham;
pub mod twiddle;

pub use cache::{plan_cache, PlanCache};
pub use complex::C64;
pub use kernel_model::{GpuModel, KernelTimeModel, LayoutKind};
pub use plan::{Direction, Plan1d, Plan3d};
pub use simd::SimdTier;
pub use stockham::StockhamPlan;

/// Returns true if `n` factors entirely into 2, 3, 5 and 7 — the sizes the
/// Stockham engine handles without Bluestein.
pub fn is_smooth(mut n: usize) -> bool {
    if n == 0 {
        return false;
    }
    for p in [2usize, 3, 5, 7] {
        while n.is_multiple_of(p) {
            n /= p;
        }
    }
    n == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoothness() {
        assert!(is_smooth(1));
        assert!(is_smooth(2));
        assert!(is_smooth(8));
        assert!(is_smooth(6));
        assert!(is_smooth(360));
        assert!(is_smooth(2 * 3 * 5 * 7));
        assert!(!is_smooth(11));
        assert!(!is_smooth(13 * 2));
        assert!(!is_smooth(0));
    }
}
