//! World, ranks, communicators and the rendezvous board.
//!
//! Rank programs execute on real threads and exchange real (typed) payloads
//! through one rendezvous board per communicator. The board is a zero-cost
//! *control plane* (`control_allgather`, `control_exchange`): it moves data
//! and never touches a clock. No payload carries a timestamp; simulated
//! time advances only when [`crate::coll`] prices a whole operation with
//! the pure schedule walkers in [`crate::pattern`] — once per collective,
//! and identically to the analytic dry-run.
//!
//! Round invariant: every collective is one round on its communicator's
//! board, keyed by a fresh per-communicator tag (`Rank::ctrl_tag`; all
//! members call collectives on a communicator in the same order, so the
//! counters agree). Each member deposits its whole row and one metadata
//! value once; the last depositor derives the round's one result from
//! every member's metadata. Each member waits once for that result, takes
//! its column in member order and a handle on the result; the last taker
//! removes the round. A rank racing ahead of a slow peer deposits under a
//! *later* tag, so no earlier call can take its row.
//!
//! A panicking rank fails its world instead of hanging it: its drop guard
//! records it, clears every board's rounds and wakes every waiter, which
//! panics naming it; [`World::run`] re-panics with its index and message.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use parking_lot::{Condvar, Mutex};
use simgrid::{MachineSpec, SimClock, SimTime};

use crate::distro::MpiDistro;

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
    /// Accepted and ignored; spelled by the frozen `benchmark/`.
    #[doc(hidden)]
    pub sched_memo: bool,
    /// Accepted and ignored; spelled by the frozen `benchmark/`.
    #[doc(hidden)]
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

/// One collective in flight on a [`Board`].
struct Round {
    /// The round's [`Slots`].
    slots: Box<dyn Any + Send>,
    deposited: usize,
    taken: usize,
}

/// What one round holds: payloads `T`, member metadata `M`, result `R`.
struct Slots<T, M, R> {
    /// `p × p` payload cells, row-major by source member.
    cells: Vec<Option<T>>,
    /// One metadata slot per member.
    metas: Vec<Option<M>>,
    /// Set once, by the last depositor.
    result: Option<Arc<R>>,
}

impl Round {
    /// The slots, typed as every member of the round must agree.
    fn slots<T: Send + 'static, M: Send + 'static, R: Send + Sync + 'static>(
        &mut self,
    ) -> &mut Slots<T, M, R> {
        match self.slots.downcast_mut::<Slots<T, M, R>>() {
            Some(slots) => slots,
            None => panic!("members disagree on a collective's payload type"),
        }
    }
}

/// A communicator's rendezvous board: its in-flight rounds by tag.
#[derive(Default)]
struct Board {
    rounds: Mutex<BTreeMap<u64, Round>>,
    cv: Condvar,
}

/// A simulated machine partition running `nranks` MPI ranks (1 per GPU).
pub struct World {
    spec: MachineSpec,
    opts: WorldOpts,
    nranks: usize,
    /// One board per communicator id, reset by every [`World::run`].
    boards: Mutex<BTreeMap<u64, Arc<Board>>>,
    /// First failing rank + 1 of the current run; 0 while none has failed.
    failed: AtomicUsize,
}

impl World {
    /// Creates a world of `nranks` ranks on machine `spec`.
    pub fn new(spec: MachineSpec, nranks: usize, opts: WorldOpts) -> World {
        assert!(nranks > 0, "world needs at least one rank");
        World {
            spec,
            opts,
            nranks,
            boards: Mutex::default(),
            failed: AtomicUsize::new(0),
        }
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

    /// The board of communicator `comm_id`, created on first use.
    fn board(&self, comm_id: u64) -> Arc<Board> {
        Arc::clone(self.boards.lock().entry(comm_id).or_default())
    }

    /// The first rank of the current run that failed, if any has.
    fn failure(&self) -> Option<usize> {
        self.failed.load(Ordering::Acquire).checked_sub(1)
    }

    /// Fails the current run on behalf of the unwinding rank `rank`: records
    /// it unless an earlier rank failed first, and drops every in-flight
    /// round (waking any owner parked on a deposited handle) before waking
    /// every waiter to observe the failure. The boards are collected first
    /// and the map lock released, so no lock is ever taken while another is
    /// held (DESIGN.md §12).
    fn abort(&self, rank: usize) {
        let _ = self
            .failed
            .compare_exchange(0, rank + 1, Ordering::AcqRel, Ordering::Acquire);
        let boards: Vec<Arc<Board>> = self.boards.lock().values().cloned().collect();
        for board in boards {
            board.rounds.lock().clear();
            board.cv.notify_all();
        }
    }

    /// Runs one rank program per rank on its own thread and returns their
    /// results in rank order. This is the functional execution mode; the
    /// closure receives a [`Rank`] handle carrying the rank's simulated
    /// clock. If a rank panics, its peers abandon their collectives instead
    /// of waiting for it, and `run` panics with the failing rank's index and
    /// message once every rank has stopped.
    pub fn run<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&mut Rank) -> R + Sync,
        R: Send,
    {
        self.boards.lock().clear();
        self.failed.store(0, Ordering::Release);
        let results: Vec<thread::Result<R>> = thread::scope(|scope| {
            #[expect(clippy::expect_used, reason = "thread spawn failure is unrecoverable")]
            let handles: Vec<_> = (0..self.nranks)
                .map(|r| {
                    let f = &f;
                    thread::Builder::new()
                        .name(format!("rank-{r}"))
                        .stack_size(8 << 20)
                        .spawn_scoped(scope, move || {
                            let _abort = AbortOnUnwind(self, r);
                            f(&mut Rank::new(self, r))
                        })
                        .expect("failed to spawn rank thread")
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        if let Some(f) = self.failure() {
            if let Err(cause) = &results[f] {
                panic!("rank {f} failed: {}", panic_message(&**cause));
            }
        }
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|cause| panic::resume_unwind(cause)))
            .collect()
    }
}

/// Aborts the world when the rank closure it guards unwinds.
struct AbortOnUnwind<'w>(&'w World, usize);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.abort(self.1);
        }
    }
}

/// The text a panic was raised with.
fn panic_message(cause: &(dyn Any + Send)) -> &str {
    cause
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| cause.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Per-rank execution handle: identity, simulated clock, the
/// per-communicator collective call counters and the rank's work record.
pub struct Rank<'w> {
    world: &'w World,
    rank: usize,
    /// The rank's simulated clock. Public so executors can advance it by
    /// modeled kernel durations.
    pub clock: SimClock,
    ctrl_counters: BTreeMap<u64, u64>,
    pub(crate) work: RankWork,
}

/// The host work one rank did in `mpisim`, counted as it happened: plain
/// always-on counters owned by the [`Rank`], so a test can pin them and two
/// runs of one program compare them exactly. Only work every schedule
/// fixes is counted — how often a wait slept depends on the host's thread
/// scheduling and is not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankWork {
    /// Board rounds joined: one per collective, control or priced.
    pub rounds: u64,
    /// Priced exchanges joined ([`crate::coll::exchange`]).
    pub exchanges: u64,
    /// Bytes this rank's byte rows declared to those exchanges, its own
    /// block included: what its group priced, not what the host moved.
    pub exchange_bytes: u64,
}

impl<'w> Rank<'w> {
    fn new(world: &'w World, rank: usize) -> Rank<'w> {
        Rank {
            world,
            rank,
            clock: SimClock::new(),
            ctrl_counters: BTreeMap::new(),
            work: RankWork::default(),
        }
    }

    /// What this rank has done so far (see [`RankWork`]).
    pub fn work(&self) -> RankWork {
        self.work
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
}

/// A communicator: an ordered group of world ranks with a distinct id.
#[derive(Clone)]
pub struct Comm {
    id: u64,
    members: Arc<Vec<usize>>,
    my_index: usize,
    board: Arc<Board>,
}

impl Comm {
    /// `MPI_COMM_WORLD` for this rank.
    pub fn world(rank: &Rank) -> Comm {
        Comm {
            id: 0,
            members: Arc::new((0..rank.size()).collect()),
            my_index: rank.rank(),
            board: rank.world.board(0),
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
        // This rank's place in the new group: how many same-color
        // `(key, world)` entries sort below its own.
        let my_index = mine.iter().filter(|&&e| e < (key, me_world)).count();
        mine.sort_unstable();
        let members: Vec<usize> = mine.iter().map(|(_, w)| *w).collect();

        // Deterministic id from (parent, call sequence, color) — identical on
        // every member, distinct across splits.
        let id = splitmix(splitmix(self.id, call_seq), color);
        Comm {
            id,
            members: Arc::new(members),
            my_index,
            board: rank.world.board(id),
        }
    }

    /// Gathers one value from every member, in member order. Zero simulated
    /// cost: this is simulator control-plane traffic.
    pub fn control_allgather<T: Clone + Send + 'static>(
        &self,
        rank: &mut Rank,
        value: T,
    ) -> Vec<T> {
        self.control_exchange(rank, vec![value; self.size()])
    }

    /// Moves one payload to each member (index-addressed) and receives one
    /// from each, with zero simulated cost. The caller is responsible for
    /// advancing clocks via a schedule walker.
    pub fn control_exchange<T: Send + 'static>(&self, rank: &mut Rank, sends: Vec<T>) -> Vec<T> {
        self.rendezvous(rank, sends, (), |_| ()).0
    }

    /// One round on this communicator's board: deposits `row` (`row[j]` for
    /// member `j`) and `meta`, waits until the round has its result, and
    /// returns this member's column (one payload per source member, in
    /// member order) with a handle on that result. The last member to
    /// deposit computes it, once, by calling its `finish` on every member's
    /// metadata in member order — so `finish` must not depend on which
    /// member's closure runs.
    pub(crate) fn rendezvous<T, M, R>(
        &self,
        rank: &mut Rank,
        row: Vec<T>,
        meta: M,
        finish: impl FnOnce(&[&M]) -> R,
    ) -> (Vec<T>, Arc<R>)
    where
        T: Send + 'static,
        M: Send + 'static,
        R: Send + Sync + 'static,
    {
        let (p, me) = (self.size(), self.my_index);
        assert_eq!(row.len(), p, "one payload per member required");
        let tag = rank.ctrl_tag(self.id);
        rank.work.rounds += 1;
        let mut rounds = self.board.rounds.lock();
        let round = rounds.entry(tag).or_insert_with(|| Round {
            slots: Box::new(Slots::<T, M, R> {
                cells: (0..p * p).map(|_| None).collect(),
                metas: (0..p).map(|_| None).collect(),
                result: None,
            }),
            deposited: 0,
            taken: 0,
        });
        round.deposited += 1;
        let last = round.deposited == p;
        let slots = round.slots::<T, M, R>();
        for (cell, v) in slots.cells.iter_mut().skip(me * p).zip(row) {
            *cell = Some(v);
        }
        if let Some(slot) = slots.metas.get_mut(me) {
            *slot = Some(meta);
        }
        if last {
            // Every slot is filled, so this is one metadata value per member.
            let metas: Vec<&M> = slots.metas.iter().flatten().collect();
            slots.result = Some(Arc::new(finish(&metas)));
            self.board.cv.notify_all();
        }
        loop {
            if let Some(round) = rounds.get_mut(&tag) {
                let slots = round.slots::<T, M, R>();
                if let Some(result) = &slots.result {
                    let result = Arc::clone(result);
                    // Every row is in, so the column has one payload per member.
                    let column = slots.cells.iter_mut().skip(me).step_by(p);
                    let column = column.filter_map(Option::take).collect();
                    round.taken += 1;
                    if round.taken == p {
                        rounds.remove(&tag);
                    }
                    return (column, result);
                }
            }
            if let Some(f) = rank.world.failure() {
                panic!("rank {} abandoned a collective: rank {f} failed", rank.rank);
            }
            self.board.cv.wait(&mut rounds);
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
    use std::sync::Barrier;

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
    fn lone_and_racing_rounds_complete_and_leave_no_round() {
        let w = world(2);
        let gate = Barrier::new(2);
        w.run(|r| {
            let me = r.rank();
            let world = Comm::world(r);
            // A 1-member communicator completes each round on its own.
            let alone = world.split(r, me as u64, 0);
            assert_eq!(alone.control_exchange(r, vec![me]), vec![me]);
            // Rank 0 races three rounds ahead on its board while rank 1
            // is held back, then both meet on the world board.
            if me == 1 {
                gate.wait();
            }
            for round in 0..3 {
                assert_eq!(alone.control_allgather(r, (me, round)), vec![(me, round)]);
            }
            if me == 0 {
                gate.wait();
            }
            for round in 0..3 {
                assert_eq!(world.control_allgather(r, round), vec![round, round]);
            }
        });
        let boards: Vec<Arc<Board>> = w.boards.lock().values().cloned().collect();
        assert_eq!(boards.len(), 3, "the world board and two lone boards");
        assert!(boards.iter().all(|b| b.rounds.lock().is_empty()));
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
