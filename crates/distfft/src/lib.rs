#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]
//! # distfft — distributed multi-GPU 3-D FFT
//!
//! The core library of the reproduction: a from-scratch implementation of the
//! parallel FFT algorithm the paper studies (its Algorithm 1, as contributed
//! to heFFTe 2.1), running on the simulated cluster of `simgrid`/`mpisim`.
//!
//! ## What it implements
//!
//! * **Decompositions** (paper Fig. 1): slabs (one exchange), pencils (two
//!   exchanges), and bricks — pencil compute stages with brick-shaped
//!   input/output grids obtained by minimum-surface splitting (two extra
//!   exchanges, four total; Table III's blue grids).
//! * **Exchange backends** (Table I): padded `MPI_Alltoall`,
//!   `MPI_Alltoallv`, `MPI_Alltoallw` with sub-array datatypes (Algorithm 2 /
//!   Dalcin et al.), and point-to-point `MPI_(I)send`/`MPI_Irecv` in blocking
//!   and non-blocking flavors.
//! * **Novel features of the paper**: FFT **grid shrinking** (remap to a
//!   sub-communicator of `l_p < n_p` ranks around the compute; Algorithm 1
//!   line 2) and **batched 2-D/3-D transforms** with communication/computation
//!   pipelining (Fig. 13).
//! * **Tuning knobs**: contiguous ("transposed") vs strided local FFTs
//!   (Figs. 6, 7, 10), GPU-aware MPI on/off (Figs. 8, 9, 11).
//!
//! ## Two executors, one cost model
//!
//! [`exec`] runs the plan *functionally*: real complex data on rank threads,
//! real local FFTs, real reshapes — used for correctness at small sizes.
//! [`dryrun`] walks the same plan *analytically* at any scale (512³ on 3072
//! GPUs takes milliseconds). Both draw every duration from the same kernel
//! and schedule models, so their simulated times agree exactly — a property
//! the test suite enforces.

pub mod api;
pub mod boxes;
pub mod decomp;
pub mod dryrun;
pub mod exec;
pub mod plan;
pub mod procgrid;
pub mod real3d;
pub mod reshape;
pub mod schedule;
pub mod timeline;
pub mod trace;

pub use api::{Fft3d, Scale};
pub use boxes::Box3;
pub use decomp::Decomp;
pub use exec::{ExecWork, PoolStats};
pub use plan::{CommBackend, FftOptions, FftPlan, IoLayout, PlanError};
pub use trace::{KernelKind, Trace, TraceEvent};
