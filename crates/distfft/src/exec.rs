//! Functional executor: runs a plan on `mpisim` rank threads with real data.
//!
//! [`bind`] lowers the plan once per rank into its [`BoundPlan`];
//! [`execute`] only walks the lowered ops (plan once, execute many).
//!
//! Data correctness and simulated timing are both produced here. The timing
//! bookkeeping mirrors a GPU + NIC pipeline per rank:
//!
//! * `gpu_clock` — when the rank's GPU finishes its latest kernel;
//! * `rank.clock` — the network timeline (exchange entry/exit, via the
//!   shared schedule walkers inside the `mpisim` collectives);
//! * per-chunk `data_ready` — when a pipeline chunk's data is available.
//!
//! With `batch == 1` this degenerates to strictly serial execution; with
//! batched transforms, chunk `c+1`'s kernels overlap chunk `c`'s exchanges —
//! the communication/computation overlap behind the >2× batching speedups of
//! Fig. 13.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, Thread};

use fftkern::plan::{Layout, Plan1d};
use fftkern::{Direction, C64};
use mpisim::coll;
use mpisim::comm::{Comm, Rank, World};
use mpisim::PhaseEnv;
use simgrid::SimTime;

use crate::boxes::Box3;
use crate::plan::FftPlan;
use crate::reshape::{apply_self_block, ReshapeSpec, ELEM_BYTES};
use crate::schedule::{Op, ReshapeOp, RunEnv, Timeline};
use crate::trace::Trace;

/// Effective chunk count for one communication group: the requested
/// setting clamped to the number of off-diagonal send steps (`p - 1`).
/// Groups of ≤ 2 ranks have a single step and can never chunk.
pub fn effective_group_chunks(setting: usize, group_size: usize) -> usize {
    setting.min(group_size.saturating_sub(1)).max(1)
}

/// Cross-call executor state: strided-plan warmup tracking, the phase-id
/// counter, the per-rank scratch pool and the arrays the rank's reshapes
/// retired and share with their groups. Create one per experiment and
/// reuse it across warm-up and timed transforms so the Fig. 10 first-call
/// spikes land in the warm-up — and so the steady state runs entirely out
/// of recycled buffers, as on the real machine. Everything runs on the
/// rank's own thread (rank programs are already one thread per rank).
#[derive(Debug, Clone, Default)]
pub struct ExecCtx {
    strided_seen: BTreeSet<(usize, usize, bool)>,
    call_counter: u64,
    scratch: ExecScratch,
    /// By phase-id parity: a reshape refills the slot of the one before
    /// its predecessor, whose readers are almost always done.
    retired: [Slot; 2],
}

/// The arrays one reshape moved out of this rank's layout, shared
/// read-only with its group: each receiver copies its sub-boxes straight
/// out of them ([`run_reshape`]) through a [`Reader`].
#[derive(Debug, Default)]
struct Retired {
    arrays: Vec<Vec<C64>>,
    /// The rank thread that reclaims the arrays; the last reader wakes it.
    owner: Option<Thread>,
    /// Readers shared with the group and not yet dropped.
    readers: AtomicUsize,
}

/// A group member's read-only handle on a [`Retired`]. Dropping it — after
/// the copy, or while unwinding — releases it. The last release wakes the
/// owner, parked in [`Slot::reclaim`], only after letting go of its `Arc`:
/// waking it first leaves the owner spinning on a count its preempted
/// waker still holds (measured in CHANGES.md, "one copy per reshaped byte").
struct Reader(Option<Arc<Retired>>);

impl Drop for Reader {
    fn drop(&mut self) {
        let Some(retired) = self.0.take() else { return };
        if retired.readers.fetch_sub(1, Ordering::AcqRel) == 1 {
            let owner = Option::clone(&retired.owner);
            drop(retired);
            owner.iter().for_each(Thread::unpark);
        }
    }
}

/// The context's own handle on a [`Retired`]: allocated once per context
/// and empty whenever `execute` is not running.
#[derive(Debug, Default)]
struct Slot(Arc<Retired>);

impl Clone for Slot {
    /// Never shares the handle: two contexts on one could never reclaim it.
    fn clone(&self) -> Slot {
        Slot::default()
    }
}

impl Slot {
    /// Returns the arrays to `pool` once no receiver holds a handle on
    /// them: parked until the last release, then yielding while released
    /// handles finish dropping (nothing can block in between). Receivers
    /// drop their [`Reader`] as soon as they have copied, and copying waits
    /// on nothing, so the wait always ends.
    fn reclaim(&mut self, pool: &mut ExecScratch) {
        while self.0.readers.load(Ordering::Acquire) > 0 {
            thread::park();
        }
        while Arc::strong_count(&self.0) > 1 {
            thread::yield_now();
        }
        if let Some(retired) = Arc::get_mut(&mut self.0) {
            retired.arrays.drain(..).for_each(|buf| pool.give(buf));
        }
    }
}

impl ExecCtx {
    /// Fresh state (next transform pays the strided first-call spikes and
    /// the buffer-pool warm-up).
    pub fn new() -> ExecCtx {
        ExecCtx::default()
    }

    /// Benchmark-pinned spelling of [`ExecCtx::new`]: the frozen
    /// `benchmark/` passes `1`; goes with fftbench v2 (ROADMAP H(3)).
    #[doc(hidden)]
    pub fn with_threads(threads: usize) -> ExecCtx {
        assert_eq!(threads, 1, "the executor runs on the rank's own thread");
        ExecCtx::new()
    }

    pub(crate) fn first_strided(&mut self, dist: usize, axis: usize, dir: Direction) -> bool {
        self.strided_seen
            .insert((dist, axis, matches!(dir, Direction::Forward)))
    }

    pub(crate) fn next_phase_id(&mut self) -> u64 {
        let id = self.call_counter;
        self.call_counter += 1;
        id
    }

    /// Takes a pooled, empty staging buffer (recycled capacity, length 0).
    pub(crate) fn take_buffer(&mut self) -> Vec<C64> {
        self.scratch.take_len(0)
    }

    /// Returns a buffer to the pool for reuse by later calls.
    pub(crate) fn recycle(&mut self, buf: Vec<C64>) {
        self.scratch.give(buf);
    }

    /// Number of buffers currently parked in the pool (diagnostics).
    pub fn pooled_buffers(&self) -> usize {
        self.scratch.arrays.len()
    }

    /// Cumulative hit/miss/eviction statistics of this context's scratch
    /// pool: the `pool` part of [`ExecCtx::work`].
    pub fn pool_stats(&self) -> PoolStats {
        self.scratch.work.pool
    }

    /// Everything this context's transforms have done on the host so far
    /// (see [`ExecWork`]).
    pub fn work(&self) -> ExecWork {
        self.scratch.work
    }

    pub(crate) fn work_mut(&mut self) -> &mut ExecWork {
        &mut self.scratch.work
    }

    /// Leak counter (test seam): pool takes minus deposits of this
    /// context. Buffers never leave the rank that took them — receivers
    /// copy out of a sender's retired arrays and the sender reclaims them —
    /// so once `execute` returns this is exactly zero on every rank;
    /// anything else is a leaked (or double-deposited) pooled buffer.
    pub fn outstanding_buffers(&self) -> i64 {
        self.scratch.outstanding
    }

    /// Retires `data`'s arrays into reshape `phase`'s slot, once reclaimed,
    /// swapping in pooled arrays of `len` elements, un-zeroed: a reshape
    /// writes every element of its target layout exactly once. Returns one
    /// [`Reader`] per member of a group of `n`.
    fn retire(&mut self, phase: u64, data: &mut [Vec<C64>], len: usize, n: usize) -> Vec<Reader> {
        let [even, odd] = &mut self.retired;
        let slot = if phase.is_multiple_of(2) { even } else { odd };
        slot.reclaim(&mut self.scratch);
        if let Some(retired) = Arc::get_mut(&mut slot.0) {
            retired.owner = Some(thread::current());
            *retired.readers.get_mut() = n;
            for item in data {
                let new = self.scratch.take_len(len);
                retired.arrays.push(std::mem::replace(item, new));
            }
        }
        (0..n).map(|_| Reader(Some(Arc::clone(&slot.0)))).collect()
    }
}

/// The host work of one rank's transforms, counted as it happened: plain
/// always-on counters owned by its [`ExecCtx`], so a test can pin them and
/// two runs of one program compare them exactly. Together with the rank's
/// `mpisim::comm::RankWork` it is the rank's record of host work.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecWork {
    /// How the scratch pool's free list behaved.
    pub pool: PoolStats,
    /// Bytes the pool wrote to grow a taken buffer to its length: fresh
    /// capacity, or a recycled buffer shorter than asked for.
    pub filled_bytes: u64,
    /// Bytes reshapes copied into this rank's layouts
    /// ([`apply_self_block`], one copy per reshaped byte).
    pub copied_bytes: u64,
    /// Points the butterflies transformed: each 1-D line's length, summed
    /// over every line of every axis pass (5·n·log₂ n flops per n points).
    pub fft_points: u64,
    /// Reshape schedules lowered by [`bind`], counted by the first transform.
    pub lowered: u64,
}

/// Scratch-pool statistics: how the recycled-buffer free list behaved.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls served from a recycled buffer.
    pub hits: u64,
    /// `take` calls that had to allocate (empty pool).
    pub misses: u64,
    /// `give` calls that dropped a non-empty buffer because the pool was
    /// full (`POOL_CAP`) — silent deallocation churn on the hot path.
    pub evictions: u64,
}

/// Pooled per-rank execution scratch: recycled local arrays plus the shared
/// 1-D kernel scratch. After one warm transform, no data buffer is
/// allocated — every buffer the executor needs comes out of (and goes back
/// into) this free list. The small tables a warm pair still allocates are
/// counted and pinned by `tests/allocations.rs`.
#[derive(Debug, Default, Clone)]
struct ExecScratch {
    /// Free list of recycled `Vec<C64>` buffers, any capacity.
    arrays: Vec<Vec<C64>>,
    /// Scratch for the batched 1-D kernels (grown to the largest
    /// `Plan1d::scratch_elems` seen).
    kernel: Vec<C64>,
    /// The context's work record (see [`ExecWork`]), kept here because
    /// most of it is counted where the pool is at hand.
    work: ExecWork,
    /// Leak accounting: pool takes minus deposits, zero on every rank after
    /// every completed `execute`.
    outstanding: i64,
}

/// Free-list bound: a rank holds three arrays per batch item (its layout
/// and two retired ones) plus r2c staging, well under this; the cap only
/// guards against pathological churn.
const POOL_CAP: usize = 64;

/// What a pooled array holds before its reshape writes it, in debug
/// builds: an element the copies miss stays NaN and fails every
/// correctness check downstream.
const POISON: C64 = C64::new(f64::NAN, f64::NAN);

impl ExecScratch {
    /// A pooled buffer of `len` elements whose contents are unspecified —
    /// stale in release builds, [`POISON`] in debug ones — for a caller
    /// that overwrites every one (`len == 0`: an empty staging buffer).
    fn take_len(&mut self, len: usize) -> Vec<C64> {
        self.outstanding += 1;
        let mut buf = match self.arrays.pop() {
            Some(buf) => {
                self.work.pool.hits += 1;
                buf
            }
            None => {
                self.work.pool.misses += 1;
                Vec::new()
            }
        };
        self.work.filled_bytes += (len.saturating_sub(buf.len()) * ELEM_BYTES) as u64;
        buf.resize(len, POISON);
        if cfg!(debug_assertions) {
            buf.fill(POISON);
        }
        buf
    }

    /// The per-arena 1-D kernel scratch, grown to at least `elems`.
    fn kernel_for(&mut self, elems: usize) -> &mut Vec<C64> {
        if self.kernel.len() < elems {
            self.kernel.resize(elems, C64::ZERO);
        }
        &mut self.kernel
    }

    fn give(&mut self, buf: Vec<C64>) {
        // Leak accounting must see capacity-0 deposits too: a buffer taken
        // on a miss and never grown (e.g. an empty box's layout) is still a
        // matched take/deposit pair.
        self.outstanding -= 1;
        if buf.capacity() == 0 {
            // Nothing worth recycling; not an eviction.
            return;
        }
        if self.arrays.len() < POOL_CAP {
            self.arrays.push(buf);
        } else {
            // The free list is full: this buffer's capacity is silently
            // deallocated. Recorded so a figure harness can prove the
            // steady state never churns (tests/pooling.rs asserts 0).
            self.work.pool.evictions += 1;
        }
    }
}

/// Per-rank result of one executed transform.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Event log of this rank.
    pub trace: Trace,
    /// Completion time of this rank (GPU and network both drained).
    pub total: SimTime,
}

/// One rank's plan, bound: per direction, its lowered ops and each
/// reshape's group sub-communicator. Binding is collective: every rank
/// must call [`bind`] at the same point.
pub struct BoundPlan {
    fwd: (Vec<Op>, Vec<Option<Comm>>),
    rev: (Vec<Op>, Vec<Option<Comm>>),
    /// Schedules `bind` lowered that no transform has counted yet.
    uncounted: AtomicU64,
}

/// Splits the group sub-communicators of every reshape (forward and
/// reverse) and lowers both directions for this rank. Collective over
/// `comm`.
#[expect(
    clippy::indexing_slicing,
    reason = "`me` is a rank of `comm`, which spans the plan's ranks, and `group_of` holds one entry per rank"
)]
pub fn bind(plan: &FftPlan, rank: &mut Rank, comm: &Comm) -> BoundPlan {
    let me = comm.me();
    let split_for = |rank: &mut Rank, specs: &[ReshapeSpec]| -> Vec<Option<Comm>> {
        specs
            .iter()
            .map(|spec| {
                let color = spec.group_of[me].map(|g| g as u64).unwrap_or(u64::MAX);
                let sub = comm.split(rank, color, me as u64);
                spec.group_of[me].map(|_| sub)
            })
            .collect()
    };
    let fwd_comms = split_for(rank, &plan.reshapes);
    let rev_comms = split_for(rank, &plan.reshapes_rev);
    let env = run_env(plan, rank.world());
    let (fwd, fwd_lowered) = env.program(Direction::Forward, |r| r == me);
    let (rev, rev_lowered) = env.program(Direction::Inverse, |r| r == me);
    BoundPlan {
        fwd: (fwd, fwd_comms),
        rev: (rev, rev_comms),
        uncounted: AtomicU64::new(fwd_lowered + rev_lowered),
    }
}

/// Everything constant while `plan` runs on `world`.
fn run_env<'a>(plan: &'a FftPlan, world: &'a World) -> RunEnv<'a> {
    RunEnv {
        plan,
        machine: world.spec(),
        km: world.spec().kernel_model(),
        gpu_aware: world.opts().gpu_aware,
        distro: world.opts().distro,
        slowdowns: &world.opts().compute_slowdown,
    }
}

/// Executes one (possibly batched) transform functionally.
///
/// `data[b]` holds batch item `b`'s local elements in the layout of the
/// plan's input distribution (forward) or output distribution (inverse);
/// on return it holds the transformed elements in the opposite boundary
/// layout. Transforms are unnormalized in both directions.
#[allow(clippy::ptr_arg)] // batch items are swapped wholesale; &mut Vec is the honest type
#[expect(
    clippy::indexing_slicing,
    reason = "`plan.dists` is never empty, `me` is below the asserted `comm.size() == plan.nranks`, and `Box3::chunk` keeps `ilo..ihi` inside the batch"
)]
pub fn execute(
    plan: &FftPlan,
    bound: &BoundPlan,
    ctx: &mut ExecCtx,
    rank: &mut Rank,
    comm: &Comm,
    data: &mut Vec<Vec<C64>>,
    dir: Direction,
) -> ExecResult {
    assert_eq!(comm.size(), plan.nranks, "communicator does not match plan");
    assert_eq!(
        data.len(),
        plan.opts.batch,
        "one local array per batch item"
    );
    let me = comm.me();
    // `Rank::world()` hands back `&'w World`, so the machine spec and the
    // slowdown table are borrowed for the whole call — no per-execute clone.
    let env = run_env(plan, rank.world());
    let ((ops, comms), start_dist) = match dir {
        Direction::Forward => (&bound.fwd, 0usize),
        Direction::Inverse => (&bound.rev, plan.dists.len() - 1),
    };
    ctx.scratch.work.lowered += bound.uncounted.swap(0, Ordering::Relaxed);

    let expect = plan.dists[start_dist].rank_box(me).volume();
    for d in data.iter() {
        assert_eq!(d.len(), expect, "local array does not match input layout");
    }

    let mut trace = Trace::new();
    let t0 = rank.now();
    let mut gpu_clock = t0;
    let chunks = plan.chunks();
    let mut data_ready = vec![t0; chunks];

    for (c, ready) in data_ready.iter_mut().enumerate() {
        // Chunk -> item range.
        let (ilo, ihi) = Box3::chunk(plan.opts.batch, chunks, c);
        let data = &mut data[ilo..ihi];
        let mut tl = Timeline {
            gpu_clock: &mut gpu_clock,
            data_ready: ready,
            trace: &mut trace,
        };
        for op in ops {
            // A whole-box pass: an `Op::Fft`, or the step a reshape op owns
            // on a rank whose group did not chunk (or that is in no group;
            // the rank's own program holds at most its own group).
            let whole = match *op {
                Op::Fft { dist, axis } => Some((dist, axis)),
                Op::Reshape(ref op) => {
                    let sub = comms.get(op.reshape).and_then(Option::as_ref);
                    run_reshape(&env, op, sub, rank, ctx, &mut tl, data);
                    let chunked = op.groups(data.len()).first().is_some_and(|g| g.k >= 2);
                    op.next_axis
                        .filter(|_| !chunked)
                        .map(|axis| (op.to_dist, axis))
                }
            };
            let Some((dist, axis)) = whole else { continue };
            let first = ctx.first_strided(dist, axis, dir);
            env.local_fft(&mut tl, me, dist, axis, data.len(), first);
            // Real math on every item of this chunk.
            let b = plan.dists[dist].rank_box(me);
            if !b.is_empty() {
                let all = [(0, b.volume() / b.len(axis))];
                run_local_fft(b, axis, &all, data, dir, &mut ctx.scratch);
            }
        }
    }

    // Retired arrays go home before user code can see (or clone) the context.
    ctx.retired
        .iter_mut()
        .for_each(|s| s.reclaim(&mut ctx.scratch));
    let total = gpu_clock
        .max(rank.now())
        .max(data_ready.iter().copied().fold(SimTime::ZERO, SimTime::max));
    rank.clock.sync_to(total);
    ExecResult { trace, total }
}

/// The cached 1-D plan for the lines along `axis` of a box of shape `s`:
/// contiguous rows for axis 2, one strided batch per axis-0 plane for
/// axis 1, one strided batch over the whole item for axis 0. A strided
/// batch is `dist == 1`, so `fftkern` transforms it a panel of adjacent
/// lines at a time — the lines are the vector lanes of every butterfly
/// stage, with no transpose.
#[expect(
    clippy::indexing_slicing,
    reason = "`axis` is 0, 1 or 2 and `s` is a 3-D shape"
)]
fn axis_plan(s: [usize; 3], axis: usize) -> std::sync::Arc<Plan1d> {
    let n = s[axis];
    let (batch, layout) = match axis {
        2 => (s[0] * s[1], Layout::contiguous(n)),
        1 => (s[2], Layout::strided(s[2])),
        0 => (s[1] * s[2], Layout::strided(s[1] * s[2])),
        _ => unreachable!("axis out of range"),
    };
    fftkern::plan_cache().plan1d(n, batch, layout, layout)
}

/// Runs the real batched 1-D FFTs along `axis` over the `[lo, hi)` line
/// runs of every item's local array (always on the canonical row-major box
/// layout; the contiguous / strided distinction is a *timing* concern
/// handled by the kernel model). The whole box is the one run of all its
/// lines; transform-ahead (DESIGN.md §14) passes the lines each reshape
/// chunk completed. Rows transform independently through the same cached
/// plan and interned twiddles, so any partition of the lines into runs is
/// bit-identical to the whole-box pass.
///
/// Plans come out of the process-wide [`fftkern::plan_cache`] and the
/// transform runs through the `_scratch` entry points against the pool's
/// kernel buffer (grown once per shape, reused across calls), so the steady
/// state builds no plans and allocates no buffers.
#[expect(
    clippy::indexing_slicing,
    reason = "axis-1 line runs stay below `s[0] * s[2]`, so each plane slice lies inside the item's box volume"
)]
fn run_local_fft(
    b: &Box3,
    axis: usize,
    runs: &[(usize, usize)],
    data: &mut [Vec<C64>],
    dir: Direction,
    scratch: &mut ExecScratch,
) {
    let (s, n) = (b.shape(), b.len(axis));
    if n == 0 || runs.is_empty() {
        return;
    }
    let plan1d = axis_plan(s, axis);
    let lines: usize = runs.iter().map(|&(lo, hi)| hi - lo).sum();
    scratch.work.fft_points += (lines * n * data.len()) as u64;
    let kernel = scratch.kernel_for(plan1d.scratch_elems());
    for item in data.iter_mut() {
        for &(lo, hi) in runs {
            if axis != 1 {
                plan1d.execute_lines_inplace_scratch(item, dir, kernel, lo, hi);
                continue;
            }
            // Line index = i0·s2 + i2 — split the run at axis-0 plane
            // boundaries, transforming within each plane (the axis-1 plan
            // is strided within one plane).
            let plane = s[1] * s[2];
            let mut cur = lo;
            while cur < hi {
                let i0 = cur / s[2];
                let plo = cur - i0 * s[2];
                let phi = (hi - i0 * s[2]).min(s[2]);
                let seg = &mut item[i0 * plane..(i0 + 1) * plane];
                plan1d.execute_lines_inplace_scratch(seg, dir, kernel, plo, phi);
                cur = i0 * s[2] + phi;
            }
        }
    }
}

/// Executes one reshape op for one pipeline chunk — the functional
/// interpreter of the rank's lowered [`ReshapeSchedule`](crate::schedule):
/// stamp the pack chain, share the chunk's retired arrays with the group
/// through the one `mpisim` exchange, copy this rank's sub-boxes out of
/// every member's, then stamp the MPI calls, unpacks and transform-ahead
/// butterflies. A chunked group runs the op's owned transform here, per
/// chunk; otherwise [`execute`] runs it whole-box.
///
/// The host moves each byte once, the same way for every backend, while
/// the clock still charges Algorithm 1's pack → wire → unpack. Data is
/// bit-identical at every chunk count: each element of the new layout is
/// copied once from the one rank that held it, and the line runs partition
/// the rank's rows exactly, so chunk-completion order affects timing only.
#[expect(
    clippy::indexing_slicing,
    reason = "the op's distributions index `plan.dists`, members are plan ranks, and `before_exchange` pushes one entry per chunk, at least one"
)]
fn run_reshape(
    env: &RunEnv,
    op: &ReshapeOp,
    sub: Option<&Comm>,
    rank: &mut Rank,
    ctx: &mut ExecCtx,
    tl: &mut Timeline,
    data: &mut [Vec<C64>],
) {
    let plan = env.plan;
    let me_world = rank.rank();
    let to_box = plan.dists[op.to_dist].rank_box(me_world);
    let n = sub.map_or(0, Comm::size);
    // Phase id must advance identically on every rank and in the dry run.
    let phase_id = ctx.next_phase_id();
    let handles = ctx.retire(phase_id, data, to_box.volume(), n);

    // A rank outside every group has no flows at all: nothing to stamp.
    // Its own program holds at most its own group and schedule.
    let Some((sub, group)) = sub.zip(op.groups(data.len()).first()) else {
        return;
    };
    let Some(sched) = group.scheds.first() else {
        return;
    };
    let members = sub.members();
    let mut entries = Vec::with_capacity(group.k);
    sched.before_exchange(env, tl, &mut entries);
    // The call posts as soon as the *first* chunk is packed; later
    // chunks post when their own pack is done.
    rank.clock.sync_to(entries[0]);
    let posted = rank.now();
    for t in entries.iter_mut() {
        *t = posted.max(*t);
    }

    // What a backend costs — routine, padding, pack kernels — is in
    // `sched` and the group's byte rows; the bytes move the same way.
    let phase = PhaseEnv {
        phase_id,
        ..group.env
    };
    let row = group.rows.row(sub.me());
    let (recvd, times) = coll::exchange(rank, sub, phase, &group.kind, handles, row, &entries);
    for (&src, reader) in members.iter().zip(recvd) {
        let from_box = plan.dists[op.from_dist].rank_box(src);
        let arrays = reader
            .0
            .as_deref()
            .map_or(&[] as &[_], |r| r.arrays.as_slice());
        // A member built from a different plan shares the wrong blocks;
        // copying what lines up would leave items stale, so fail the world.
        let vol = from_box.volume();
        if arrays.len() != data.len() || arrays.iter().any(|a| a.len() != vol) {
            let lens: Vec<usize> = arrays.iter().map(Vec::len).collect();
            panic!(
                "reshape block from rank {src} does not match this rank's plan: \
                 arrays of {lens:?} elements, expected {} of {vol}",
                data.len()
            );
        }
        for (old, new) in arrays.iter().zip(data.iter_mut()) {
            let copied = apply_self_block(from_box, old, to_box, new);
            ctx.scratch.work.copied_bytes += (copied * ELEM_BYTES) as u64;
        }
    }
    let first =
        (sched.ahead.as_ref()).is_some_and(|a| ctx.first_strided(op.to_dist, a.axis, op.dir));
    let (ready, exit) = (times.ready(sub.me()), times.exit(sub.me()));
    sched.after_exchange(env, tl, &entries, ready, exit, first);

    // The real butterfly math of the owned step, on the new arrays: every
    // chunk's lines in chunk order. Row transforms are independent, so
    // this is bit-identical to the whole-box pass.
    if let Some(ahead) = &sched.ahead {
        for runs in &ahead.runs {
            run_local_fft(to_box, ahead.axis, runs, data, op.dir, &mut ctx.scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn group_chunks_clamp_to_peer_count() {
        // Groups of 2 have one send step — never chunkable.
        assert_eq!(super::effective_group_chunks(4, 2), 1);
        assert_eq!(super::effective_group_chunks(4, 8), 4);
        // More chunks than peers clamps to p-1.
        assert_eq!(super::effective_group_chunks(16, 8), 7);
        assert_eq!(super::effective_group_chunks(1, 8), 1);
        // Degenerate groups.
        assert_eq!(super::effective_group_chunks(4, 1), 1);
        assert_eq!(super::effective_group_chunks(4, 0), 1);
    }
}
