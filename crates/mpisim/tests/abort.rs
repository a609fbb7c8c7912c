//! A rank that panics fails its world instead of hanging it: its peers
//! abandon the collective they are waiting in, and `World::run` panics
//! naming the failing rank and its message. A watchdog bounds the run.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use mpisim::comm::{Comm, World, WorldOpts};
use simgrid::MachineSpec;

#[test]
fn a_rank_panicking_between_two_rounds_fails_the_world_naming_it() {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let world = World::new(MachineSpec::testbox(2), 4, WorldOpts::default());
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            world.run(|rank| {
                let (comm, me) = (Comm::world(rank), rank.rank());
                comm.control_exchange(rank, vec![me; 4]);
                if me == 2 {
                    panic!("injected fault");
                }
                comm.control_exchange(rank, vec![me; 4]);
            })
        }));
        tx.send(outcome.err().and_then(|c| c.downcast::<String>().ok()))
    });
    let failure = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the world hung after rank 2 panicked")
        .expect("World::run returned although rank 2 panicked");
    assert!(
        failure.contains("rank 2 failed: injected fault"),
        "{failure}"
    );
}
