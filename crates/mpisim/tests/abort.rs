//! A rank that panics fails its world instead of hanging it: its peers
//! abandon the collective they are waiting in, and `World::run` panics
//! naming the failing rank and its message. A rank that returns while its
//! peers wait for it in a round, and members that disagree on how an
//! exchange is priced, fail it the same way, naming that rank or member. A
//! watchdog bounds each run.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use mpisim::coll;
use mpisim::comm::{Comm, Rank, World, WorldOpts};
use mpisim::{P2pFlavor, PhaseEnv};
use simgrid::MachineSpec;

/// Runs `world.run(rank_fn)` on a watchdog thread and returns the message
/// `World::run` panicked with.
fn failure_of(world: World, rank_fn: impl Fn(&mut Rank) + Send + Sync + 'static) -> String {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| world.run(&rank_fn)));
        tx.send(outcome.err().and_then(|c| c.downcast::<String>().ok()))
    });
    *rx.recv_timeout(Duration::from_secs(30))
        .expect("the world hung")
        .expect("World::run returned although a rank failed")
}

#[test]
fn a_rank_panicking_between_two_rounds_fails_the_world_naming_it() {
    let world = World::new(MachineSpec::testbox(2), 4, WorldOpts::default());
    let failure = failure_of(world, |rank| {
        let (comm, me) = (Comm::world(rank), rank.rank());
        comm.control_exchange(rank, vec![me; 4]);
        if me == 2 {
            panic!("injected fault");
        }
        comm.control_exchange(rank, vec![me; 4]);
    });
    assert!(
        failure.contains("rank 2 failed: injected fault"),
        "{failure}"
    );
}

#[test]
fn a_member_pricing_another_exchange_kind_fails_the_world_naming_it() {
    // Member 2 posts a point-to-point exchange where its peers post an
    // `MPI_Alltoallv`: the round carries the same payload types, but the
    // group has no one schedule to price, so whichever member prices it
    // must fail the world naming member 2.
    let world = World::new(MachineSpec::testbox(2), 4, WorldOpts::default());
    let failure = failure_of(world, |rank| {
        let (comm, me) = (Comm::world(rank), rank.rank());
        let (env, sends) = (PhaseEnv::quiet(true), vec![vec![me as u64; 8]; 4]);
        if me == 2 {
            coll::p2p_exchange(rank, &comm, env, P2pFlavor::NonBlocking, sends);
        } else {
            coll::alltoallv(rank, &comm, env, sends);
        }
    });
    assert!(
        failure.contains("exchange member 2 (rank 2) disagrees with member 0 on the exchange kind"),
        "{failure}"
    );
}

#[test]
fn a_rank_returning_between_two_rounds_fails_the_world_naming_it() {
    let world = World::new(MachineSpec::testbox(2), 4, WorldOpts::default());
    let failure = failure_of(world, |rank| {
        let (comm, me) = (Comm::world(rank), rank.rank());
        comm.control_exchange(rank, vec![me; 4]);
        if me == 2 {
            return;
        }
        comm.control_exchange(rank, vec![me; 4]);
    });
    assert!(
        failure.contains("rank 2 returned without joining it"),
        "{failure}"
    );
}
