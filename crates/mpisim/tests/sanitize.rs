//! Schedule-permutation stress test (ISSUE 5; the seed is process-global,
//! hence a test file of its own).
//!
//! The simulator's control plane consumes mailbox messages in arrival
//! order — a host-scheduling artifact. The sanitizer's shuffle mode forces
//! a seeded pseudo-random harvest order instead; simulated exit times and
//! exchange results must be bit-identical for every seed, including no
//! shuffling at all.

use mpisim::coll;
use mpisim::comm::{Comm, World, WorldOpts};
use mpisim::sanitize::set_shuffle_seed;
use mpisim::{P2pFlavor, PhaseEnv};
use simgrid::{MachineSpec, SimTime};

/// One mixed exchange workload on 8 ranks with jitter enabled. Returns
/// per-rank (final simulated clock ns, checksum of every received value).
fn run_workload(shuffle_seed: u64) -> Vec<(u64, u64)> {
    set_shuffle_seed(shuffle_seed);
    let opts = WorldOpts {
        noise_amplitude: 0.05,
        seed: 0xC0FFEE,
        ..WorldOpts::default()
    };
    let world = World::new(MachineSpec::testbox(2), 8, opts);
    let out = world.run(|rank| {
        let comm = Comm::world(rank);
        let me = comm.me();
        let env = PhaseEnv::quiet(true);
        let mut checksum = 0u64;

        // Uneven alltoallv: member i sends (i + j) % 5 + 1 words to j.
        let sends: Vec<Vec<u64>> = (0..comm.size())
            .map(|j| vec![me as u64; (me + j) % 5 + 1])
            .collect();
        let recvd = coll::alltoallv(rank, &comm, env, sends);
        for (j, block) in recvd.iter().enumerate() {
            assert_eq!(block.len(), (me + j) % 5 + 1);
            assert!(block.iter().all(|&v| v == j as u64));
            checksum = checksum
                .wrapping_mul(1099511628211)
                .wrapping_add(block.iter().sum::<u64>());
        }

        // A point-to-point round (zero-length pairs skipped), then a
        // partitioned alltoallv whose second chunk is packed 5 µs late.
        let n = comm.size();
        let sends = (0..n).map(|j| vec![me as u64 * 7; (me + j) % 3]).collect();
        let p2p = coll::p2p_exchange(rank, &comm, env, P2pFlavor::NonBlocking, sends);
        let sends = (0..n).map(|j| vec![(me ^ j) as u64; 4]).collect();
        let entries = [rank.now(), rank.now() + SimTime::from_ns(5_000)];
        let (parts, times) = coll::alltoallv_partitioned(rank, &comm, env, sends, &entries);
        let ready = times.ready(me).iter().map(|t| t.as_ns());
        for v in p2p.iter().chain(&parts).flatten().copied().chain(ready) {
            checksum = checksum.wrapping_mul(1099511628211).wrapping_add(v);
        }

        (rank.now().as_ns(), checksum)
    });
    set_shuffle_seed(0);
    out
}

#[test]
fn shuffled_harvest_order_never_moves_simulated_time() {
    // Seeds probed sequentially in one test: the shuffle seed is
    // process-global state.
    let baseline = run_workload(0);
    assert!(
        baseline.iter().all(|&(ns, _)| ns > 0),
        "workload must advance simulated time"
    );
    for seed in [1, 42, 0xDEAD_BEEF, u64::MAX] {
        let shuffled = run_workload(seed);
        assert_eq!(
            baseline, shuffled,
            "harvest order with shuffle seed {seed} changed simulated exit \
             times or exchange results"
        );
    }
}
