//! World, ranks, communicators and the mailbox transport.
//!
//! Rank programs execute on real threads and exchange real (typed) payloads
//! through per-rank mailboxes. The mailbox is a zero-cost *control plane*
//! (`control_allgather`, `control_exchange`): it moves data and lets
//! collective implementations agree on entry times and byte counts, and it
//! never touches a clock. No message carries a timestamp; simulated time
//! advances only when [`crate::coll`] prices a whole operation with the
//! pure schedule walkers in [`crate::pattern`] — identically on every rank,
//! and identically to the analytic dry-run.
//!
//! Mailbox invariant: a rank's mailbox never holds two envelopes with the
//! same `(communicator, source, tag)` key. Every collective draws a fresh
//! per-communicator tag (`Rank::ctrl_tag`; all members call collectives
//! on a communicator in the same order, so the counters agree) and a
//! member posts at most one envelope per destination under it. A receive
//! is therefore an exact key match: a rank that has raced several
//! collectives ahead of a slow peer leaves envelopes under *later* tags in
//! that peer's mailbox, and none of them can be taken for an earlier call.
//! `World::post` checks the invariant in debug builds.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use simgrid::{MachineSpec, SimClock, SimTime};

use crate::distro::MpiDistro;

/// Matching key of a message: (communicator id, source world rank, tag).
pub(crate) type MatchKey = (u64, usize, u64);

/// Global options of a simulated MPI world.
#[derive(Debug, Clone)]
pub struct WorldOpts {
    /// GPU-aware MPI (heFFTe's default; `--no-gpu-aware` clears it).
    pub gpu_aware: bool,
    /// Which MPI distribution's behaviour profile to emulate.
    pub distro: MpiDistro,
    /// Relative per-message timing jitter amplitude (0 = exact model).
    pub noise_amplitude: f64,
    /// Seed for the deterministic jitter.
    pub seed: u64,
    /// Failure injection: per-rank GPU compute slowdown factors (>1 =
    /// slower), e.g. a thermally-throttled or degraded device. Kernel
    /// durations on the listed ranks are multiplied by the factor; the
    /// network model is unaffected.
    pub compute_slowdown: Vec<(usize, f64)>,
    /// Memoize collective schedule pricing across calls (see
    /// [`crate::pattern::SchedMemo`]). Simulated times are identical either
    /// way; memo-off is the reference the replay equality tests compare the
    /// memoized run against.
    pub sched_memo: bool,
    /// Fuse the (entry time, byte row) metadata round of each data
    /// collective onto the data messages themselves (one rendezvous per
    /// collective instead of two). Results and simulated times are
    /// identical either way; the unfused two-round form is the reference
    /// of the same equality tests.
    pub fused_meta: bool,
}

impl Default for WorldOpts {
    fn default() -> Self {
        WorldOpts {
            gpu_aware: true,
            distro: MpiDistro::SpectrumMpi,
            noise_amplitude: 0.0,
            seed: 0xF0F0_1234,
            compute_slowdown: Vec::new(),
            sched_memo: true,
            fused_meta: true,
        }
    }
}

/// One in-flight message; `key` is unique within the mailbox holding it.
pub(crate) struct Envelope {
    pub key: MatchKey,
    pub payload: Box<dyn Any + Send>,
}

#[derive(Default)]
struct Mailbox {
    q: Mutex<Vec<Envelope>>,
    cv: Condvar,
}

/// A simulated machine partition running `nranks` MPI ranks (1 per GPU).
pub struct World {
    spec: MachineSpec,
    opts: WorldOpts,
    nranks: usize,
    mailboxes: Vec<Mailbox>,
    /// Shared collective-schedule memo (spec/seed/noise are fixed per
    /// world, which is what makes one memo per world sound).
    sched_memo: crate::pattern::SchedMemo,
}

impl World {
    /// Creates a world of `nranks` ranks on machine `spec`.
    pub fn new(spec: MachineSpec, nranks: usize, opts: WorldOpts) -> World {
        assert!(nranks > 0, "world needs at least one rank");
        World {
            spec,
            opts,
            nranks,
            mailboxes: (0..nranks).map(|_| Mailbox::default()).collect(),
            sched_memo: crate::pattern::SchedMemo::default(),
        }
    }

    /// The world's collective-schedule memo.
    pub(crate) fn sched_memo(&self) -> &crate::pattern::SchedMemo {
        &self.sched_memo
    }

    /// Number of priced exchange schedules this world currently caches.
    pub fn cached_schedules(&self) -> usize {
        self.sched_memo.schedules()
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.nranks
    }

    /// Machine description.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// World options.
    pub fn opts(&self) -> &WorldOpts {
        &self.opts
    }

    /// Number of nodes occupied by this world.
    pub fn nodes(&self) -> usize {
        self.spec.nodes_for(self.nranks)
    }

    pub(crate) fn post(&self, dst: usize, env: Envelope) {
        let mb = &self.mailboxes[dst];
        {
            let mut q = mb.q.lock();
            debug_assert!(
                q.iter().all(|e| e.key != env.key),
                "two in-flight envelopes under one (comm, src, tag) key {:?}",
                env.key
            );
            q.push(env);
        }
        // Exactly one thread (the owning rank) ever waits on a mailbox.
        mb.cv.notify_one();
    }

    /// Runs one rank program per rank on its own thread and returns their
    /// results in rank order. This is the functional execution mode; the
    /// closure receives a [`Rank`] handle carrying the rank's simulated
    /// clock.
    pub fn run<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&mut Rank) -> R + Sync,
        R: Send,
    {
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.nranks)
                .map(|r| {
                    let fref = &f;
                    scope
                        .builder()
                        .name(format!("rank-{r}"))
                        .stack_size(8 << 20)
                        .spawn(move |_| {
                            let mut rank = Rank::new(self, r);
                            fref(&mut rank)
                        })
                        // fftlint:allow(no-panic-in-lib): thread spawn failure is unrecoverable
                        .expect("failed to spawn rank thread")
                })
                .collect();
            handles
                .into_iter()
                // fftlint:allow(no-panic-in-lib): propagating a rank panic is the contract
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        })
        // fftlint:allow(no-panic-in-lib): propagating a rank panic is the contract
        .expect("world scope panicked")
    }
}

/// Per-rank execution handle: identity, simulated clock and the
/// per-communicator collective call counters.
pub struct Rank<'w> {
    world: &'w World,
    rank: usize,
    /// The rank's simulated clock. Public so executors can advance it by
    /// modeled kernel durations.
    pub clock: SimClock,
    ctrl_counters: BTreeMap<u64, u64>,
}

impl<'w> Rank<'w> {
    fn new(world: &'w World, rank: usize) -> Rank<'w> {
        Rank {
            world,
            rank,
            clock: SimClock::new(),
            ctrl_counters: BTreeMap::new(),
        }
    }

    /// World this rank belongs to.
    pub fn world(&self) -> &'w World {
        self.world
    }

    /// World rank index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.world.nranks
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Advances the clock by a modeled local-compute duration.
    pub fn compute_ns(&mut self, ns: u64) {
        self.clock.advance_ns(ns);
    }

    /// Allocates the next collective tag for a communicator. All members
    /// call collectives in the same order (an MPI requirement), so the
    /// counters agree across ranks.
    pub(crate) fn ctrl_tag(&mut self, comm_id: u64) -> u64 {
        let c = self.ctrl_counters.entry(comm_id).or_insert(0);
        let tag = *c;
        *c += 1;
        tag
    }

    /// Posts a message to `dst` (world rank).
    pub(crate) fn post_raw(
        &self,
        comm_id: u64,
        dst_world: usize,
        tag: u64,
        payload: Box<dyn Any + Send>,
    ) {
        let env = Envelope {
            key: (comm_id, self.rank, tag),
            payload,
        };
        self.world.post(dst_world, env);
    }

    /// Blocks until a message matching one of `keys` is available; returns
    /// the index of the matched key and the envelope. Keys are unique in a
    /// mailbox, so which of several available matches comes back first only
    /// decides harvest order, which no caller's result depends on.
    pub(crate) fn recv_matching(&mut self, keys: &[MatchKey]) -> (usize, Envelope) {
        let mb = &self.world.mailboxes[self.rank];
        let mut q = mb.q.lock();
        loop {
            let hit = q.iter().enumerate().find_map(|(qi, env)| {
                let ki = keys.iter().position(|k| *k == env.key)?;
                Some((qi, ki))
            });
            if let Some((qi, ki)) = hit {
                return (ki, q.swap_remove(qi));
            }
            mb.cv.wait(&mut q);
        }
    }
}

/// A communicator: an ordered group of world ranks with a distinct id.
#[derive(Clone)]
pub struct Comm {
    id: u64,
    members: Arc<Vec<usize>>,
    my_index: usize,
}

impl Comm {
    /// `MPI_COMM_WORLD` for this rank.
    pub fn world(rank: &Rank) -> Comm {
        Comm {
            id: 0,
            members: Arc::new((0..rank.size()).collect()),
            my_index: rank.rank(),
        }
    }

    /// Communicator id (distinct per split).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This rank's index within the communicator.
    pub fn me(&self) -> usize {
        self.my_index
    }

    /// World rank of member `i`.
    pub fn member(&self, i: usize) -> usize {
        self.members[i]
    }

    /// All member world ranks, in communicator order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Splits the communicator by `color`, ordering members of each new
    /// communicator by `(key, world rank)` — `MPI_Comm_split` semantics.
    /// Returns this rank's new communicator.
    pub fn split(&self, rank: &mut Rank, color: u64, key: u64) -> Comm {
        let me_world = self.member(self.my_index);
        let gathered = self.control_allgather(rank, (color, key, me_world));
        let call_seq = rank.ctrl_counters.get(&self.id).copied().unwrap_or(0);

        let mut mine: Vec<(u64, usize)> = gathered
            .iter()
            .filter(|(c, _, _)| *c == color)
            .map(|(_, k, w)| (*k, *w))
            .collect();
        mine.sort_unstable();
        let members: Vec<usize> = mine.iter().map(|(_, w)| *w).collect();
        let my_index = members
            .iter()
            .position(|w| *w == me_world)
            // fftlint:allow(no-panic-in-lib): split() inserted this rank two lines up
            .expect("rank missing from its own split group");

        // Deterministic id from (parent, call sequence, color) — identical on
        // every member, distinct across splits.
        let id = splitmix(splitmix(self.id, call_seq), color);
        Comm {
            id,
            members: Arc::new(members),
            my_index,
        }
    }

    /// Gathers one value from every member, in member order. Zero simulated
    /// cost: this is simulator control-plane traffic, used by collectives to
    /// agree on entry times and byte counts.
    pub fn control_allgather<T: Clone + Send + 'static>(
        &self,
        rank: &mut Rank,
        value: T,
    ) -> Vec<T> {
        let tag = rank.ctrl_tag(self.id);
        for (i, &w) in self.members.iter().enumerate() {
            if i != self.my_index {
                rank.post_raw(self.id, w, tag, Box::new(value.clone()));
            }
        }
        let mut out: Vec<Option<T>> = vec![None; self.size()];
        out[self.my_index] = Some(value);
        self.harvest_any_order(rank, tag, &mut out);
        out.into_iter()
            // fftlint:allow(no-panic-in-lib): harvest_any_order fills every non-self slot
            .map(|v| v.expect("allgather hole"))
            .collect()
    }

    /// Moves one payload to each member (index-addressed) and receives one
    /// from each, with zero simulated cost. The caller is responsible for
    /// advancing clocks via a schedule walker.
    pub fn control_exchange<T: Send + 'static>(
        &self,
        rank: &mut Rank,
        mut sends: Vec<T>,
    ) -> Vec<T> {
        assert_eq!(sends.len(), self.size(), "one payload per member required");
        let tag = rank.ctrl_tag(self.id);
        // Keep own payload; post the rest (drain from the back to keep
        // indices stable).
        let mut own: Option<T> = None;
        for i in (0..self.size()).rev() {
            // fftlint:allow(no-panic-in-lib): length asserted at function entry
            let item = sends.pop().expect("length checked above");
            if i == self.my_index {
                own = Some(item);
            } else {
                rank.post_raw(self.id, self.member(i), tag, Box::new(item));
            }
        }
        let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
        out[self.my_index] = own;
        self.harvest_any_order(rank, tag, &mut out);
        // fftlint:allow(no-panic-in-lib): harvest_any_order fills every non-self slot
        out.into_iter().map(|v| v.expect("exchange hole")).collect()
    }

    /// Collects one `tag`-keyed payload from every other member into `out`
    /// (indexed by member), consuming messages in **arrival order** rather
    /// than member order. Waiting for member `i` specifically while later
    /// members' messages already sit in the mailbox would cost one spurious
    /// sleep/wake per out-of-order arrival — on an oversubscribed host that
    /// futex churn dominates small exchanges. The result is independent of
    /// harvest order, so callers see identical outputs.
    fn harvest_any_order<T: Send + 'static>(
        &self,
        rank: &mut Rank,
        tag: u64,
        out: &mut [Option<T>],
    ) {
        let mut pending: Vec<usize> = (0..self.size()).filter(|i| *i != self.my_index).collect();
        // Schedule-permutation stress mode: force a seeded pseudo-random
        // harvest order (blocking on one specific member at a time) instead
        // of arrival order. Exercises the invariant documented above — no
        // simulated time may depend on which order the host delivered
        // control-plane messages in.
        if let Some(perm) = crate::sanitize::harvest_permutation(pending.len()) {
            for pi in perm {
                let i = pending[pi];
                let key = [(self.id, self.member(i), tag)];
                let (_, env) = rank.recv_matching(&key);
                let payload = env
                    .payload
                    .downcast::<T>()
                    .unwrap_or_else(|_| panic!("type mismatch on message from member {i}"));
                out[i] = Some(*payload);
            }
            return;
        }
        let mut keys: Vec<MatchKey> = pending
            .iter()
            .map(|&i| (self.id, self.member(i), tag))
            .collect();
        while !pending.is_empty() {
            let (ki, env) = rank.recv_matching(&keys);
            let i = pending.swap_remove(ki);
            keys.swap_remove(ki);
            let payload = env
                .payload
                .downcast::<T>()
                .unwrap_or_else(|_| panic!("type mismatch on message from member {i}"));
            out[i] = Some(*payload);
        }
    }
}

/// SplitMix64-style mixing for communicator ids.
fn splitmix(a: u64, b: u64) -> u64 {
    let mut x = a
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(b)
        .wrapping_add(0x2545F4914F6CDD1D);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D049BB133111EB);
    x ^= x >> 31;
    x | 1 // never collide with the world id 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgrid::MachineSpec;

    fn world(n: usize) -> World {
        World::new(MachineSpec::testbox(2), n, WorldOpts::default())
    }

    #[test]
    fn run_returns_results_in_rank_order() {
        let w = world(4);
        let out = w.run(|r| r.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn control_allgather_collects_everyone() {
        let w = world(5);
        let out = w.run(|r| {
            let comm = Comm::world(r);
            comm.control_allgather(r, r.rank() as u64)
        });
        for got in out {
            assert_eq!(got, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn control_allgather_costs_no_time() {
        let w = world(3);
        let times = w.run(|r| {
            let comm = Comm::world(r);
            let _ = comm.control_allgather(r, 7u32);
            r.now()
        });
        assert!(times.iter().all(|t| *t == SimTime::ZERO));
    }

    #[test]
    fn control_exchange_routes_by_index() {
        let w = world(4);
        let out = w.run(|r| {
            let comm = Comm::world(r);
            // Send "100*me + dest" to each dest.
            let sends: Vec<u64> = (0..4).map(|d| 100 * r.rank() as u64 + d as u64).collect();
            comm.control_exchange(r, sends)
        });
        for (me, got) in out.iter().enumerate() {
            let expect: Vec<u64> = (0..4).map(|src| 100 * src as u64 + me as u64).collect();
            assert_eq!(*got, expect, "rank {me}");
        }
    }

    #[test]
    fn split_groups_and_orders_members() {
        let w = world(6);
        let out = w.run(|r| {
            let comm = Comm::world(r);
            // Even/odd split, reverse order inside each group via key.
            let color = (r.rank() % 2) as u64;
            let key = (100 - r.rank()) as u64;
            let sub = comm.split(r, color, key);
            (sub.id(), sub.members().to_vec(), sub.me())
        });
        // Evens reversed: [4, 2, 0]; odds reversed: [5, 3, 1].
        assert_eq!(out[0].1, vec![4, 2, 0]);
        assert_eq!(out[1].1, vec![5, 3, 1]);
        assert_eq!(out[0].1[out[0].2], 0);
        assert_eq!(out[3].1[out[3].2], 3);
        // Same color ⇒ same id; different color ⇒ different id.
        assert_eq!(out[0].0, out[2].0);
        assert_ne!(out[0].0, out[1].0);
        assert_ne!(out[0].0, 0);
    }

    #[test]
    fn sequential_splits_get_distinct_ids() {
        let w = world(2);
        let out = w.run(|r| {
            let comm = Comm::world(r);
            let a = comm.split(r, 0, r.rank() as u64);
            let b = comm.split(r, 0, r.rank() as u64);
            (a.id(), b.id())
        });
        assert_ne!(out[0].0, out[0].1);
        assert_eq!(out[0].0, out[1].0);
    }
}
