#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]
//! # simgrid — simulated multi-GPU cluster
//!
//! The paper's experiments ran on Summit (4 608 nodes × 2 POWER9 + 6 V100,
//! dual-rail EDR InfiniBand at ≈23.5 GB/s practical) and Spock (36 nodes ×
//! 4 MI100). This crate is the stand-in for that hardware: a deterministic
//! analytic model of nodes, GPUs, intra-node links (NVLink / Infinity
//! Fabric), NICs and the inter-node fabric, together with simulated clocks.
//! Host staging for non-GPU-aware MPI is a flag of the transfer being
//! priced ([`TransferCtx::gpu_aware`]), not a separate buffer type.
//!
//! Everything above this crate (the MPI layer, the distributed FFT, the
//! benchmark harness) obtains *all* of its timing from the functions here —
//! never from wall-clock — so simulated experiments are reproducible to the
//! nanosecond.
//!
//! Calibration constants come straight from the paper (§II-A):
//!
//! * NVLink: 25 GB/s per direction per link, two links per V100–P9 pair ⇒
//!   50 GB/s per direction;
//! * inter-node: dual-rail EDR InfiniBand, "practical bandwidth of about
//!   23.5 GB/s" per node;
//! * latency: 1 µs inter-node (the value the paper plugs into its model,
//!   §IV-A);
//! * 6 GPUs/node on Summit, 4 GPUs/node on Spock, 1 MPI rank per GPU.

pub mod link;
pub mod machine;
pub mod noise;
pub mod time;

pub use link::{LinkPath, TransferCtx};
pub use machine::MachineSpec;
pub use noise::Noise;
pub use time::{SimClock, SimTime};
