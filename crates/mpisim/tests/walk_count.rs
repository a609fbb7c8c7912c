//! A functional exchange is priced exactly once per collective, however
//! many members its group has and whatever order they arrive in: every
//! member holds the one shared result, that result equals a direct pricing
//! of the group's matrix from the entry times its members brought, and
//! every rank's work record counts one round and one exchange per call.

use std::sync::Arc;

use mpisim::coll::{self, ExchangeKind};
use mpisim::comm::{Comm, RankWork, World, WorldOpts};
use mpisim::pattern::{NetParams, PartitionedTimes, PhaseEnv};
use simgrid::{MachineSpec, SimTime};

const RANKS: usize = 24;
const CALLS: u64 = 5;

/// Elements member `i` sends member `j`: uneven, some pairs empty.
fn len(i: usize, j: usize) -> usize {
    (i * 7 + j * 3 + 1) % 5 * 16
}

/// Bytes member `i` sends member `j`.
fn bytes(i: usize, j: usize) -> usize {
    len(i, j) * size_of::<u64>()
}

/// Member `i`'s non-zero byte row.
fn row(i: usize) -> Vec<(usize, usize)> {
    let pairs = (0..RANKS).map(|j| (j, bytes(i, j)));
    pairs.filter(|&(_, b)| b > 0).collect()
}

#[test]
fn each_exchange_walks_its_schedule_exactly_once() {
    let spec = MachineSpec::summit();
    let group: Vec<usize> = (0..RANKS).collect();
    let matrix: Vec<Vec<usize>> = (0..RANKS)
        .map(|i| (0..RANKS).map(|j| bytes(i, j)).collect())
        .collect();
    let env = |call: u64| PhaseEnv::machine_wide(&spec, RANKS, RANKS - 1, true, call);
    for noise_amplitude in [0.0, 0.05] {
        let opts = WorldOpts {
            noise_amplitude,
            ..WorldOpts::default()
        };
        let np = NetParams {
            spec: &spec,
            seed: opts.seed,
            noise_amp: noise_amplitude,
        };
        let world = World::new(spec.clone(), RANKS, opts);
        let runs = world.run(|rank| {
            let (comm, me) = (Comm::world(rank), rank.rank());
            let kind = ExchangeKind::alltoallv();
            let calls: Vec<(SimTime, Arc<PartitionedTimes>)> = (0..CALLS)
                .map(|call| {
                    let entry = rank.now();
                    let sends: Vec<Vec<u64>> = (0..RANKS).map(|j| vec![0; len(me, j)]).collect();
                    let (_, times) =
                        coll::exchange(rank, &comm, env(call), &kind, sends, &row(me), &[entry]);
                    (entry, times)
                })
                .collect();
            (calls, rank.work())
        });
        for call in 0..CALLS as usize {
            let shared = &runs[0].0[call].1;
            for (me, (calls, _)) in runs.iter().enumerate() {
                assert!(
                    Arc::ptr_eq(&calls[call].1, shared),
                    "member {me} of call {call} priced its own copy"
                );
            }
            let entries: Vec<SimTime> = runs.iter().map(|(calls, _)| calls[call].0).collect();
            let direct =
                coll::alltoallv_exit_times(&np, &env(call as u64), &group, &entries, &matrix);
            assert_eq!(shared.exits(), direct, "noise amplitude {noise_amplitude}");
        }
        for (me, (_, work)) in runs.iter().enumerate() {
            let want = RankWork {
                rounds: CALLS,
                exchanges: CALLS,
                exchange_bytes: CALLS * row(me).iter().map(|&(_, b)| b).sum::<usize>() as u64,
            };
            assert_eq!(*work, want, "rank {me}");
        }
    }
}
