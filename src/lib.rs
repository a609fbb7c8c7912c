//! # parallel-fft-repro
//!
//! Umbrella crate of the reproduction of *"Performance Analysis of Parallel
//! FFT on Large Multi-GPU Systems"* (Ayala, Tomov, Stoyanov, Haidar,
//! Dongarra — IPDPSW 2022). Re-exports the workspace crates so examples and
//! downstream users can depend on one package:
//!
//! * [`fftkern`] — the local FFT engine (cuFFT/rocFFT/FFTW substitute);
//! * [`simgrid`] — the simulated Summit/Spock cluster;
//! * [`mpisim`] — the simulated MPI layer (SpectrumMPI/MVAPICH profiles);
//! * [`distfft`] — the distributed FFT library (the paper's contribution);
//! * [`fftmodels`] — the bandwidth model, phase diagram and tuner;
//! * [`miniapps`] — LAMMPS/HACC/pseudo-spectral style workloads.
//!
//! See `README.md` for a guided tour and `DESIGN.md` for the experiment
//! index mapping every table and figure of the paper to a harness binary.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub use distfft;
pub use fftkern;
pub use fftmodels;
pub use miniapps;
pub use mpisim;
pub use simgrid;
