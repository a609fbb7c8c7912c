//! Replay and pool-leak tests (ISSUE 5): the runtime half of the
//! determinism contract (DESIGN.md §12) as equalities on run records.
//!
//! * the **full record** of every rank (data bits, completion time, trace,
//!   pool statistics, leak balance) is identical across reruns and
//!   scheduler memoization and metadata-fusion modes;
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

fn memo(sched_memo: bool, fused_meta: bool) -> WorldOpts {
    WorldOpts {
        sched_memo,
        fused_meta,
        ..jittered()
    }
}

#[test]
fn replays_are_invariant_where_the_contract_says_so() {
    let base = run(memo(true, true));
    for (label, other) in [
        ("sched_memo off", run(memo(false, true))),
        ("fused_meta off", run(memo(true, false))),
        ("cold scheduler, unfused", run(memo(false, false))),
        ("rerun", run(memo(true, true))),
    ] {
        assert_eq!(base, other, "run record drifted under: {label}");
    }
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
