//! Chunked-reshape invariance (ISSUE 7).
//!
//! The pipelined reshape path (`reshape_chunks > 1`, DESIGN.md §14) is a
//! *timing* optimization: per-peer chunks overlap pack, send, and unpack,
//! but the same buffers go on the wire and one index-ordered deposit pass
//! merges them — so distributed output must stay bit-identical to the
//! monolithic path across chunk counts {1, 2, peers/2, peers, auto} ×
//! executor thread counts {1, 4}, over pow2, smooth non-pow2, and Bluestein
//! grids, on both partitionable backends. The transform-ahead schedule
//! (ISSUE 9) additionally runs next-axis butterflies line-by-line as
//! chunks land, so this matrix also pins that per-line execution matches
//! the whole-batch kernel bit for bit. Simulated times must be invariant to
//! thread count *within* a chunk setting, and (unless the
//! `FFT_RESHAPE_CHUNKS` env override flattens every config to one
//! setting) chunking must actually change the schedule somewhere.

use distfft::boxes::Box3;
use distfft::exec::{bind, execute, ExecCtx};
use distfft::plan::{CommBackend, FftOptions, FftPlan};
use fftkern::{Direction, C64};
use mpisim::comm::{Comm, World, WorldOpts};
use simgrid::{MachineSpec, SimTime};

/// Pow2 axes (Stockham), smooth non-pow2 axes (Stockham with 3/5/7 stages),
/// and a prime axis (Bluestein) — the same grid triple `simd_invariance`
/// sweeps.
const GRIDS: [[usize; 3]; 3] = [[16, 16, 8], [12, 10, 14], [13, 16, 8]];

/// 8 ranks with the default brick I/O layout: the brick→pencil reshape
/// exchanges in one group of 8, so per-group chunk counts up to 7 engage
/// (pencil-stage groups of 2 stay monolithic — the mixed case).
const RANKS: usize = 8;

/// True when the `FFT_RESHAPE_CHUNKS` env override is active: it beats
/// `FftOptions::reshape_chunks` everywhere, collapsing every config in
/// this file to one setting (bit-identity still must hold; schedule
/// *difference* assertions are skipped).
fn chunks_env_forced() -> bool {
    fftobs::env::is_set("FFT_RESHAPE_CHUNKS")
}

/// Distributed forward+inverse at one (backend, chunks, threads) setting;
/// returns per-rank final data bits and completion times.
#[allow(clippy::type_complexity)]
fn run(
    n: [usize; 3],
    backend: CommBackend,
    chunks: usize,
    threads: usize,
) -> (Vec<Vec<(u64, u64)>>, Vec<SimTime>) {
    let opts = FftOptions {
        backend,
        reshape_chunks: chunks,
        ..FftOptions::default()
    };
    let plan = FftPlan::build(n, RANKS, opts);
    let world = World::new(MachineSpec::testbox(2), RANKS, WorldOpts::default());
    let whole = Box3::whole(n);
    let global: Vec<C64> = (0..n[0] * n[1] * n[2])
        .map(|i| C64::new((i as f64 * 0.43).sin(), (i as f64 * 0.29).cos()))
        .collect();
    let plan_ref = &plan;
    let per_rank = world.run(move |rank| {
        let comm = Comm::world(rank);
        let bound = bind(plan_ref, rank, &comm);
        let mut ctx = ExecCtx::with_threads(threads);
        let b = plan_ref.dists[0].rank_box(rank.rank());
        let mut data = vec![whole.extract(&global, b)];
        let _ = execute(
            plan_ref,
            &bound,
            &mut ctx,
            rank,
            &comm,
            &mut data,
            Direction::Forward,
        );
        let rep = execute(
            plan_ref,
            &bound,
            &mut ctx,
            rank,
            &comm,
            &mut data,
            Direction::Inverse,
        );
        let bits: Vec<(u64, u64)> = data[0]
            .iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect();
        (bits, rep.total)
    });
    per_rank.into_iter().unzip()
}

#[test]
fn chunked_output_bit_identical_to_monolithic() {
    for backend in [CommBackend::AllToAllV, CommBackend::P2p] {
        let mut any_schedule_diff = false;
        for n in GRIDS {
            let (ref_bits, ref_times) = run(n, backend, 1, 1);
            // 2, peers/2, and peers for the 8-rank boundary group (the
            // larger two clamp per group to `size - 1`, exercising mixed
            // chunked/monolithic groups within one reshape), plus the
            // `0 = auto` sentinel whose model-picked k must be just as
            // invariant.
            for chunks in [2usize, 4, 8, 0] {
                let (bits, times) = run(n, backend, chunks, 1);
                assert_eq!(
                    bits, ref_bits,
                    "data diverged: n={n:?} backend={backend:?} chunks={chunks}"
                );
                any_schedule_diff |= times != ref_times;
                let (bits_mt, times_mt) = run(n, backend, chunks, 4);
                assert_eq!(
                    bits_mt, ref_bits,
                    "data diverged under threads: n={n:?} backend={backend:?} chunks={chunks}"
                );
                assert_eq!(
                    times_mt, times,
                    "simulated times must not depend on executor threads: \
                     n={n:?} backend={backend:?} chunks={chunks}"
                );
            }
        }
        if !chunks_env_forced() {
            assert!(
                any_schedule_diff,
                "chunking never changed the schedule for {backend:?} — the pipelined path \
                 did not engage"
            );
        }
    }
}

#[cfg(feature = "sanitize")]
mod digests {
    use super::*;
    use distfft::sanitize::{full_digest, timing_digest};
    use distfft::trace::Trace;

    /// The sanitize-suite world (jitter on) at one (chunks, threads)
    /// setting: per-rank (completion, trace) + pool stats.
    fn run_digest(
        chunks: usize,
        threads: usize,
    ) -> (Vec<(SimTime, Trace)>, Vec<distfft::exec::PoolStats>) {
        let n = [16usize, 16, 8];
        let opts = FftOptions {
            backend: CommBackend::AllToAllV,
            reshape_chunks: chunks,
            ..FftOptions::default()
        };
        let plan = FftPlan::build(n, RANKS, opts);
        let world_opts = WorldOpts {
            noise_amplitude: 0.05,
            seed: 0xC0FFEE,
            ..WorldOpts::default()
        };
        let world = World::new(MachineSpec::testbox(2), RANKS, world_opts);
        let whole = Box3::whole(n);
        let global: Vec<C64> = (0..n[0] * n[1] * n[2])
            .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.61).cos()))
            .collect();
        let plan_ref = &plan;
        let per_rank = world.run(move |rank| {
            let comm = Comm::world(rank);
            let bound = bind(plan_ref, rank, &comm);
            let mut ctx = ExecCtx::with_threads(threads);
            let b = plan_ref.dists[0].rank_box(rank.rank());
            let mut data = vec![whole.extract(&global, b)];
            let fwd = execute(
                plan_ref,
                &bound,
                &mut ctx,
                rank,
                &comm,
                &mut data,
                Direction::Forward,
            );
            let inv = execute(
                plan_ref,
                &bound,
                &mut ctx,
                rank,
                &comm,
                &mut data,
                Direction::Inverse,
            );
            let mut trace = fwd.trace;
            trace.events.extend(inv.trace.events);
            ((inv.total, trace), ctx.pool_stats())
        });
        per_rank.into_iter().unzip()
    }

    #[test]
    fn chunked_replay_digests_invariant_across_threads() {
        // The chunked schedule is deterministic: timing digests must not
        // move with the executor thread count, and a repeated run must
        // reproduce the full digest (timing + pool accounting) exactly —
        // including under the transform-ahead auto sentinel (chunks = 0).
        for chunks in [1usize, 4, 0] {
            let (r1, p1) = run_digest(chunks, 1);
            let (r4, _) = run_digest(chunks, 4);
            assert_eq!(
                timing_digest(&r1),
                timing_digest(&r4),
                "timing digest drifted with threads at chunks={chunks}"
            );
            let (r1b, p1b) = run_digest(chunks, 1);
            assert_eq!(
                full_digest(&r1, &p1),
                full_digest(&r1b, &p1b),
                "full digest not reproducible at chunks={chunks}"
            );
        }
    }
}
