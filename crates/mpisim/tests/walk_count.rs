//! A functional exchange is priced exactly once per collective, however
//! many members its group has and whatever order they arrive in: the
//! `mpisim.calls.*` counter reads one per call, and the `simgrid.msgs.*` /
//! `simgrid.bytes.*` counters read one schedule walk per call. Its own
//! test binary, because the fftobs registry is process-global and any
//! concurrently running walk would add to it.

use mpisim::coll;
use mpisim::comm::{Comm, World, WorldOpts};
use mpisim::pattern::{NetParams, PhaseEnv};
use simgrid::{MachineSpec, SimTime};

const RANKS: usize = 24;
const CALLS: u64 = 5;

/// Elements member `i` sends member `j`: uneven, some pairs empty.
fn len(i: usize, j: usize) -> usize {
    (i * 7 + j * 3 + 1) % 5 * 16
}

/// Every `mpisim.calls.*` and `simgrid.*` counter, by name.
fn counters() -> Vec<(String, u64)> {
    let snap = fftobs::registry().snapshot();
    let simgrid = ["msgs", "bytes"].into_iter().flat_map(|what| {
        ["self_copy", "intra_node", "inter_node"].map(|link| format!("simgrid.{what}.{link}"))
    });
    let calls = ["mpisim.calls.alltoallv".to_string()];
    calls
        .into_iter()
        .chain(simgrid)
        .map(|name| {
            let n = snap.counter(&name).unwrap_or(0);
            (name, n)
        })
        .collect()
}

/// Counts `body`'s counters from a clean registry.
fn counted(body: impl FnOnce()) -> Vec<(String, u64)> {
    fftobs::registry().reset();
    body();
    counters()
}

#[test]
fn each_exchange_walks_its_schedule_exactly_once() {
    let spec = MachineSpec::summit();
    let group: Vec<usize> = (0..RANKS).collect();
    let matrix: Vec<Vec<usize>> = (0..RANKS)
        .map(|i| (0..RANKS).map(|j| len(i, j) * size_of::<u64>()).collect())
        .collect();
    let env = |call: u64| PhaseEnv::machine_wide(&spec, RANKS, RANKS - 1, true, call);
    fftobs::set_enabled(true);
    for noise_amplitude in [0.0, 0.05] {
        let opts = WorldOpts {
            noise_amplitude,
            ..WorldOpts::default()
        };
        // One walk's census: the same matrix priced directly, once. What a
        // walk counts depends on neither its entry times nor the jitter.
        let entries = vec![SimTime::ZERO; RANKS];
        let one = counted(|| {
            let np = NetParams::exact(&spec);
            coll::alltoallv_exit_times(&np, &env(0), &group, &entries, &matrix);
        });
        let world = World::new(spec.clone(), RANKS, opts);
        let functional = counted(|| {
            world.run(|rank| {
                let (comm, me) = (Comm::world(rank), rank.rank());
                for call in 0..CALLS {
                    let sends = (0..RANKS).map(|j| vec![0u64; len(me, j)]).collect();
                    coll::alltoallv(rank, &comm, env(call), sends);
                }
            });
        });
        assert!(
            one.iter().all(|(_, n)| *n > 0),
            "every counter moves: {one:?}"
        );
        let want: Vec<(String, u64)> = one.into_iter().map(|(name, n)| (name, n * CALLS)).collect();
        assert_eq!(functional, want, "noise amplitude {noise_amplitude}");
    }
    fftobs::set_enabled(false);
}
