//! The round invariant (`mpisim::comm`): each collective is one round keyed
//! by `(communicator, tag)`, so rows that ranks racing ahead deposit for
//! later collectives — on the same or another communicator — are never
//! taken by a slow rank's earlier call.

use std::sync::Barrier;

use mpisim::coll;
use mpisim::comm::{Comm, World, WorldOpts};
use mpisim::PhaseEnv;
use simgrid::MachineSpec;

const RANKS: usize = 6;
const ROUNDS: usize = 4;

/// What member `src` sends member `dst` in call `round` on communicator
/// `comm` (0 = world, 1 = split): unique per (call, pair).
type Stamp = (u8, usize, usize, usize);

#[test]
fn ranks_racing_ahead_of_a_late_peer_deliver_every_payload_to_its_call() {
    let world = World::new(MachineSpec::testbox(2), RANKS, WorldOpts::default());
    let late = RANKS - 1;
    // Rank 0 reaches this only after all its split-communicator rounds; the
    // late rank waits on it before its first one.
    let gate = Barrier::new(2);
    let clocks = world.run(|rank| {
        let me = rank.rank();
        let w = Comm::world(rank);
        // World calls before the split, so that both communicators' tag
        // counters stand at ROUNDS when the mixed rounds begin and only
        // the communicator id tells their rounds apart.
        for round in 0..ROUNDS - 1 {
            let got: Vec<Stamp> = w.control_allgather(rank, (0, round, me, me));
            for (src, g) in got.into_iter().enumerate() {
                assert_eq!(g, (0, round, src, src));
            }
        }
        // Odd / even split, members in reverse world order.
        let sub = w.split(rank, (me % 2) as u64, (RANKS - me) as u64);

        // The even ranks run every split round while the (odd) late rank
        // has not made one call; its odd peers block in round 0.
        if me == late {
            gate.wait();
        }
        for round in 0..ROUNDS {
            let sends: Vec<Stamp> = sub.members().iter().map(|&d| (1, round, me, d)).collect();
            for (i, g) in sub.control_exchange(rank, sends).into_iter().enumerate() {
                assert_eq!(g, (1, round, sub.member(i), me));
            }
        }
        if me == 0 {
            gate.wait();
        }

        // Mixed rounds: the late rank is still in its split rounds while
        // the even ranks deposit their world rows; afterwards every rank
        // alternates communicators with equal tag numbers on both.
        let env = PhaseEnv::quiet(true);
        for round in ROUNDS..2 * ROUNDS {
            for (comm, which) in [(&w, 0u8), (&sub, 1u8)] {
                let sends: Vec<Vec<Stamp>> = comm
                    .members()
                    .iter()
                    .map(|&d| vec![(which, round, me, d); 1 + (me + d) % 3])
                    .collect();
                let got = coll::alltoallv(rank, comm, env, sends);
                for (i, block) in got.iter().enumerate() {
                    let src = comm.member(i);
                    assert_eq!(block.len(), 1 + (src + me) % 3);
                    for g in block {
                        assert_eq!(*g, (which, round, src, me));
                    }
                }
            }
        }
        rank.now().as_ns()
    });
    assert!(clocks.iter().all(|&ns| ns > 0));
}
