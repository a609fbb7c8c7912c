//! Replay and pool-leak tests (ISSUE 5): the runtime half of the
//! determinism contract (DESIGN.md §12) as equalities on run records.
//!
//! * the **full record** of every rank (data bits, completion time, trace,
//!   pool statistics, leak balance) is identical across reruns;
//! * on every rank, every pooled-buffer take is matched by a deposit once
//!   `execute` returns (no leaks, no double deposits).

mod common;

use common::{jittered, run_world, RankRun};
use distfft::plan::{CommBackend, FftOptions};
use distfft::Decomp;
use mpisim::comm::WorldOpts;

fn run(world_opts: WorldOpts) -> Vec<RankRun> {
    let opts = FftOptions {
        decomp: Decomp::Pencils,
        backend: CommBackend::AllToAllV,
        ..FftOptions::default()
    };
    run_world([16, 16, 8], 4, opts, world_opts)
}

#[test]
fn replays_are_invariant_where_the_contract_says_so() {
    assert_eq!(
        run(jittered()),
        run(jittered()),
        "run record drifted on a rerun"
    );
}

#[test]
fn every_pool_take_is_matched_by_a_deposit() {
    // Buffers never leave the rank that took them (receivers copy out of
    // the sender's retired arrays, which the sender reclaims), so the
    // balance is zero on every rank, not just summed over the world.
    for (rank, run) in run(jittered()).iter().enumerate() {
        assert_eq!(run.outstanding, 0, "rank {rank} leaked pooled buffers");
    }
}
