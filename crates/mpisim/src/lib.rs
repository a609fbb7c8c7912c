#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::indexing_slicing)]
#![warn(missing_docs)]
//! # mpisim — simulated MPI on a simulated cluster
//!
//! The substitute for IBM SpectrumMPI and MVAPICH-GDR in the reproduction.
//! Rank programs run as real threads; real data moves between them through
//! one rendezvous board per communicator; **all timing is simulated** (data-driven timestamps from the
//! `simgrid` cost model, never wall-clock), so every run is deterministic.
//!
//! Provided surface (Table I of the paper — every routine used by the FFT
//! libraries the paper surveys), each family timed as the paper times it:
//! one whole exchange per reshape, never one message at a time.
//!
//! | family | routines |
//! |---|---|
//! | Point-to-point | [`coll::p2p_exchange`] / [`coll::p2p_exchange_partitioned`] under [`P2pFlavor::Blocking`] (`MPI_Send` + receive loop) or [`P2pFlavor::NonBlocking`] (posted sends, completion in arrival order) |
//! | All-to-All | [`coll::exchange`] with [`coll::ExchangeKind::alltoall`], [`alltoallv`](coll::ExchangeKind::alltoallv), [`alltoallw`](coll::ExchangeKind::alltoallw) |
//! | Support | `comm.split` |
//!
//! Two behaviours the paper calls out are modeled explicitly:
//!
//! * **GPU-awareness** (§IV-C): with it, messages move device-direct; without
//!   it (`--no-gpu-aware` in heFFTe) every message stages
//!   `device → host → host → device`, ≈30 % slower at 16 nodes, but GPU-aware
//!   point-to-point *stops scaling* at large node counts (Fig. 9) because of
//!   per-peer registration overheads.
//! * **Distribution profiles** (§II): SpectrumMPI's `MPI_Alltoallw` is *not*
//!   GPU-aware (release-note fact the paper leans on) and, like MPICH's, is
//!   implemented as a naive `Isend`/`Irecv` loop for any size, while
//!   `MPI_Alltoall` gets tuned algorithms selected by message size.
//!
//! Timing architecture — there is exactly one: *data* moves through the
//! zero-cost control plane of [`comm`], one round per collective (no
//! payload carries a timestamp, no rank keeps NIC state), and the *clock* is advanced only by
//! [`coll::exchange_times`] and the pure schedule walkers in [`pattern`],
//! which price a whole operation from the members' entry times and byte
//! rows. The analytic dry-run executor in the `distfft` crate calls the
//! same walkers with the same arguments, which is what makes
//! functional-mode and analytic-mode timings identical by construction.

pub mod coll;
pub mod comm;
pub mod distro;
pub mod par;
pub mod pattern;

pub use comm::{Comm, Rank, World, WorldOpts};
pub use distro::MpiDistro;
pub use pattern::{P2pFlavor, PhaseEnv};
