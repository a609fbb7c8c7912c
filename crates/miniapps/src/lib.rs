#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # miniapps — application workloads over the distributed FFT
//!
//! Section IV-D of the paper shows the FFT tuning pays off inside real
//! applications. This crate rebuilds three application shapes the paper
//! names:
//!
//! * [`md`] — a LAMMPS-like molecular-dynamics mini-app whose KSPACE
//!   (long-range electrostatics) phase is a PPPM-style solver over the
//!   distributed FFT. Reproduces the Rhodopsin breakdown of Fig. 12,
//!   including the ≈40 % KSPACE reduction from switching the default
//!   fftMPI-style configuration to tuned heFFTe settings.
//! * [`poisson`] — a HACC-like spectral Poisson solver (gravity/N-body
//!   kernels solve exactly this), functionally verified against analytic
//!   solutions.
//! * [`spectral`] — a pseudo-spectral turbulence-style step (forward
//!   transform, dealiasing, spectral derivative, inverse), the workload
//!   class of reference \[28\] that motivates batched transforms.

pub mod md;
pub mod poisson;
pub mod spectral;

pub use md::{run_rhodopsin, MdBreakdown, RhodopsinConfig};
pub use poisson::{solve_poisson_distributed, PoissonResult};
pub use spectral::{spectral_step, SpectralConfig};
