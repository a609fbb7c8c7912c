//! A rank that panics after `bind` fails the world promptly, naming itself,
//! while its peers are inside their first `execute` exchange: they abandon
//! the round instead of waiting for it, and any handle on a retired array
//! deposited there is dropped. A rank handed blocks that do not match its
//! plan fails the same way, naming the member that shared them. A watchdog
//! bounds each run.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use distfft::exec::{bind, execute, ExecCtx};
use distfft::plan::{FftOptions, FftPlan};
use fftkern::{Direction, C64};
use mpisim::comm::{Comm, World, WorldOpts};
use simgrid::MachineSpec;

#[test]
fn a_rank_panicking_after_bind_fails_the_world_naming_it() {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let plan = FftPlan::build([16, 16, 8], 4, FftOptions::default());
        let world = World::new(MachineSpec::testbox(2), 4, WorldOpts::default());
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            world.run(|rank| {
                let comm = Comm::world(rank);
                let bound = bind(&plan, rank, &comm);
                if rank.rank() == 2 {
                    panic!("injected fault after bind");
                }
                let len = plan.dists[0].rank_box(rank.rank()).volume();
                let mut data = vec![vec![C64::new(1.0, 0.0); len]];
                let (mut ctx, dir) = (ExecCtx::new(), Direction::Forward);
                execute(&plan, &bound, &mut ctx, rank, &comm, &mut data, dir);
            })
        }));
        tx.send(outcome.err().and_then(|c| c.downcast::<String>().ok()))
    });
    let failure = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the world hung after rank 2 panicked")
        .expect("World::run returned although rank 2 panicked");
    assert!(
        failure.contains("rank 2 failed: injected fault after bind"),
        "{failure}"
    );
}

#[test]
fn a_member_sharing_the_wrong_batch_fails_the_world_naming_it() {
    // Two ranks build the same plan except for `batch` (2 vs 1). The
    // exchange completes, but each rank receives its peer's wrong number
    // of arrays; copying only the ones that line up would leave an item
    // stale, so the check before the copy must fail the world instead.
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let plan_for = |batch| {
            let opts = FftOptions {
                batch,
                pipeline_chunks: 1,
                ..FftOptions::default()
            };
            FftPlan::build([8, 8, 8], 2, opts)
        };
        let plans = [plan_for(2), plan_for(1)];
        let world = World::new(MachineSpec::testbox(2), 2, WorldOpts::default());
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            world.run(|rank| {
                let plan = &plans[rank.rank()];
                let comm = Comm::world(rank);
                let bound = bind(plan, rank, &comm);
                let len = plan.dists[0].rank_box(rank.rank()).volume();
                let mut data = vec![vec![C64::new(1.0, 0.0); len]; plan.opts.batch];
                let (mut ctx, dir) = (ExecCtx::new(), Direction::Forward);
                execute(plan, &bound, &mut ctx, rank, &comm, &mut data, dir);
            })
        }));
        tx.send(outcome.err().and_then(|c| c.downcast::<String>().ok()))
    });
    let failure = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the world hung on mismatched batches")
        .expect("World::run returned although the ranks' batches differ");
    // Whichever rank fails first names its peer.
    let blames = |me: usize, peer: usize| {
        failure.contains(&format!("rank {me} failed"))
            && failure.contains(&format!("from rank {peer}"))
    };
    assert!(
        (blames(0, 1) || blames(1, 0)) && failure.contains("does not match"),
        "{failure}"
    );
}
