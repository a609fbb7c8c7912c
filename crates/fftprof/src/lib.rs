#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]
//! # fftprof — critical-path profiler over `distfft` traces
//!
//! The paper's core analysis (Figs. 4–5, equations (2)–(5)) is an
//! *attribution* exercise: deciding which decomposition wins by splitting
//! total FFT time into kernel, pack/unpack and communication cost per rank.
//! `fftobs` records the raw telemetry; this crate turns a set of per-rank
//! [`distfft::Trace`]s plus the [`simgrid::MachineSpec`] topology into that
//! attribution:
//!
//! * [`attr`] — per-rank **phase attribution** in simulated time
//!   (compute / pack / unpack / self-copy / send / recv-wait / idle), with
//!   the invariant that the phases of every rank sum *exactly* to the trace
//!   makespan (an integer-nanosecond timeline sweep, no floating point).
//! * [`dag`] — **critical-path extraction** over the event DAG
//!   (happens-before edges from reshape exchange groups plus per-rank
//!   program order): which ranks, reshapes and phases sit on the path and
//!   how much each contributes.
//! * [`contention`] — **link-contention accounting**: the queuing delay of
//!   every exchange (measured call duration minus the quiet-network ideal)
//!   attributed back to the reshape step and the node-level link that
//!   caused it.
//! * [`diff`] — **differential reports** between two runs (e.g. slabs vs
//!   pencils, alltoall vs p2p) phase-by-phase, with a model-vs-measured
//!   residual column against the [`fftmodels::bandwidth`] predictions.
//! * [`report`] — the combined [`Profile`] plus its two export formats:
//!   a dependency-free JSON document and a collapsed-stack text file
//!   (flamegraph-compatible).
//! * [`explain`] — a one-paragraph "why this decomposition" narrative for
//!   a tuned choice, derived from the winner's and runner-up's profiles.
//!
//! Profiling is pure analysis: it never records `fftobs` metrics and never
//! feeds back into simulated time, so a profiled run stays byte-identical
//! to an unprofiled one.
//!
//! ```
//! use distfft::dryrun::{DryRunOpts, DryRunner};
//! use distfft::plan::{FftOptions, FftPlan};
//! let machine = simgrid::MachineSpec::summit();
//! let plan = FftPlan::build([32, 32, 32], 12, FftOptions::default());
//! let mut runner = DryRunner::new(&plan, &machine, DryRunOpts::default());
//! let rep = runner.run(fftkern::Direction::Forward);
//! let profile = fftprof::Profile::build("demo", &plan, &machine, true, &rep.traces);
//! assert_eq!(
//!     profile.phases.per_rank[0].total_ns(),
//!     profile.makespan_ns()
//! );
//! ```

pub mod attr;
pub mod contention;
pub mod dag;
pub mod diff;
pub mod explain;
pub mod report;

pub use attr::{Phase, PhaseBreakdown, PhaseTable, PHASES};
pub use contention::{Contention, LinkClass, LinkQueue, ReshapeContention};
pub use dag::{CritPath, CritSeg};
pub use diff::{DiffReport, DiffRow};
pub use explain::why_decomposition;
pub use report::{profile_config, ModelResidual, Profile};
