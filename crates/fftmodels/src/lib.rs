#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]
//! # fftmodels — communication-cost models and tuning
//!
//! Section III of the paper builds a simple bandwidth model for slab and
//! pencil decompositions (equations (2)–(5)), uses it to *predict* the
//! fastest decomposition per node count (§IV-A: slabs below 64 Summit nodes
//! for a 512³ transform, pencils beyond), and surveys three literature
//! models. This crate implements all of them, plus the end-to-end tuning
//! methodology: a phase diagram from the closed-form model and a refinement
//! pass that dry-runs candidate configurations on the simulated machine.

pub mod bandwidth;
pub mod literature;
pub mod par;
pub mod phase;
pub mod tuner;

pub use bandwidth::ModelParams;
pub use par::{par_map, sweep_threads};
pub use phase::{phase_diagram, predict_decomp, PhasePoint};
pub use tuner::{tune, TunedChoice};
