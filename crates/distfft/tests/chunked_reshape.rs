//! Chunked-reshape invariance (ISSUE 7).
//!
//! The pipelined reshape path (`reshape_chunks > 1`, DESIGN.md §14) is a
//! *timing* optimization: per-peer chunks overlap pack, send, and unpack,
//! but the same buffers go on the wire and one index-ordered deposit pass
//! merges them — so distributed output must stay bit-identical to the
//! monolithic path across chunk counts {1, 2, peers/2, peers, auto}, over
//! pow2, smooth non-pow2, and Bluestein grids, on both partitionable
//! backends. The transform-ahead schedule
//! (ISSUE 9) additionally runs next-axis butterflies line-by-line as
//! chunks land, so this matrix also pins that per-line execution matches
//! the whole-batch kernel bit for bit. A rerun must reproduce the full
//! record *within* a chunk setting, and chunking must actually change the
//! schedule somewhere.

mod common;

use common::{jittered, observable, run_world, Bits, RankRun, GRIDS};
use distfft::plan::{CommBackend, FftOptions};
use mpisim::comm::WorldOpts;

/// 8 ranks with the default brick I/O layout: the brick→pencil reshape
/// exchanges in one group of 8, so per-group chunk counts up to 7 engage
/// (pencil-stage groups of 2 stay monolithic — the mixed case).
const RANKS: usize = 8;

/// Distributed forward+inverse at one (backend, chunks) setting.
fn run(n: [usize; 3], backend: CommBackend, chunks: usize, world_opts: WorldOpts) -> Vec<RankRun> {
    let opts = FftOptions {
        backend,
        reshape_chunks: chunks,
        ..FftOptions::default()
    };
    run_world(n, RANKS, opts, world_opts)
}

fn bits(runs: &[RankRun]) -> Vec<&Bits> {
    runs.iter().map(|r| &r.bits).collect()
}

#[test]
fn chunked_output_bit_identical_to_monolithic() {
    let quiet = WorldOpts::default;
    for backend in [CommBackend::AllToAllV, CommBackend::P2p] {
        let mut any_schedule_diff = false;
        for n in GRIDS {
            let mono = run(n, backend, 1, quiet());
            // 2, peers/2, and peers for the 8-rank boundary group (the
            // larger two clamp per group to `size - 1`, exercising mixed
            // chunked/monolithic groups within one reshape), plus the
            // `0 = auto` sentinel whose model-picked k must be just as
            // invariant.
            for chunks in [2usize, 4, 8, 0] {
                let chunked = run(n, backend, chunks, quiet());
                assert_eq!(
                    bits(&chunked),
                    bits(&mono),
                    "data diverged: n={n:?} backend={backend:?} chunks={chunks}"
                );
                // Data is equal, so this is times or trace moving.
                any_schedule_diff |= observable(&chunked) != observable(&mono);
            }
        }
        assert!(
            any_schedule_diff,
            "chunking never changed the schedule for {backend:?} — the pipelined path \
             did not engage"
        );
    }
}

#[test]
fn chunked_replays_are_reproducible() {
    // The chunked schedule is deterministic under jitter: a repeated run
    // must reproduce the full record (pool accounting included) exactly —
    // including under the transform-ahead auto sentinel (chunks = 0).
    for chunks in [1usize, 4, 0] {
        let run = || run([16, 16, 8], CommBackend::AllToAllV, chunks, jittered());
        assert_eq!(run(), run(), "rerun not reproducible at chunks={chunks}");
    }
}
