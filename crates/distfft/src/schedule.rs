//! The reshape schedule: one record, two stamping functions.
//!
//! The paper's reshape is one thing — pack → MPI exchange → unpack, with
//! the backends of Table I differing only in the routine called and
//! whether a pack is needed. `RunEnv::program` lowers each direction of
//! a plan once into a list of `Op`s, each reshape holding a plain-data
//! `ReshapeSchedule` per (rank, items): `exec::bind` lowers the binding
//! rank's, the dry runner every rank's on each direction's first run, and
//! every later transform only walks the ops. Each schedule is stamped onto
//! a per-rank `Timeline` with exactly two functions:
//! `ReshapeSchedule::before_exchange` (pack chain + self-copy → per-chunk
//! entry times) and `ReshapeSchedule::after_exchange` (MPI-call events,
//! per-chunk unpack and transform-ahead butterflies). The functional
//! executor and the analytic dry-run are the two interpreters: one moves
//! data through `mpisim::coll::exchange` between the stamps, the other
//! prices each group with `mpisim::coll::exchange_times` — the same pricer
//! the functional exchange calls — so their traces agree by construction.
//! Monolithic is the `k = 1` schedule, not a second code path; DESIGN.md
//! §14 lists the five places where `k = 1` and `k ≥ 2` genuinely differ.

use fftkern::kernel_model::{KernelTimeModel, LayoutKind};
use fftkern::Direction;
use mpisim::coll::ExchangeKind;
use mpisim::pattern::{partition_of_step, P2pFlavor, PhaseEnv};
use mpisim::MpiDistro;
use simgrid::{MachineSpec, SimTime};

use crate::exec::effective_group_chunks;
use crate::plan::{slowed_ns, CommBackend, FftPlan, Step};
use crate::reshape::{ReshapeSpec, ELEM_BYTES};
use crate::trace::{KernelKind, Trace, TraceEvent};

/// Pipelined reshape estimate: a strict pack → exchange → unpack chain
/// split into `k` per-peer chunks. With each chunk's stages overlapping its
/// neighbours', the chain costs one pass through the pipeline at `1/k`
/// scale plus `k − 1` periods of the bottleneck stage:
///
/// `T_pipe(k) = (T_pack + T_comm + T_unpack)/k + ((k−1)/k)·max(T_pack, T_comm, T_unpack)`
///
/// `k = 1` recovers the strict-phase sum; as `k → ∞` the cost tends to
/// the bottleneck stage alone (the other stages' fill/drain vanishes as
/// `1/k`). This is the idealized ceiling the simulator's partitioned
/// schedule walker is measured against — the walker additionally pays
/// per-chunk message overheads, so real chunk counts have an interior
/// optimum rather than a monotone win.
pub fn t_pipelined(t_pack: f64, t_comm: f64, t_unpack: f64, k: usize) -> f64 {
    let k_f = k.max(1) as f64;
    let sum = t_pack + t_comm + t_unpack;
    let bottleneck = t_pack.max(t_comm).max(t_unpack);
    sum / k_f + (k_f - 1.0) / k_f * bottleneck
}

/// Transform-ahead pipelined reshape estimate: extends [`t_pipelined`]
/// with the two effects that give the chunk count a real interior optimum
/// and make auto-selection possible.
///
/// * **Per-chunk latency** `lat`: each extra chunk pays one more round of
///   message/posting overheads, adding `(k−1)·lat`. This is what keeps
///   `k → ∞` from looking free.
/// * **Compute overlap ceiling** `t_fft`: with transform-ahead, the next
///   axis transform of lines completed by early chunks runs while late
///   chunks are still on the wire. The first chunk's lines are not
///   available until it lands, so at most `(k−1)/k` of the transform can
///   hide — and it can never hide more than the wire time it hides under:
///
/// `T(k) = T_pipe(k) + (k−1)·lat + T_fft − min(T_fft, T_comm)·(k−1)/k`
///
/// `k = 1` recovers the strict chain `T_pack + T_comm + T_unpack + T_fft`.
/// `reshape_chunks = 0` (auto) picks `argmin_k T(k)`. This is the single
/// definition of the chunk-count model; `fftmodels::bandwidth` re-exports
/// it (that crate depends on this one).
pub fn t_pipelined_ext(
    t_pack: f64,
    t_comm: f64,
    t_unpack: f64,
    t_fft: f64,
    lat: f64,
    k: usize,
) -> f64 {
    let k_f = k.max(1) as f64;
    let overlap = t_fft.min(t_comm) * (k_f - 1.0) / k_f;
    t_pipelined(t_pack, t_comm, t_unpack, k) + (k_f - 1.0) * lat + t_fft - overlap
}

/// The chunk count `k ∈ [1, max_k]` minimizing [`t_pipelined_ext`] for the
/// given stage times (ns), smallest `k` winning ties.
pub(crate) fn argmin_chunks(stages_ns: [u64; 5], max_k: usize) -> usize {
    let [pack, comm, unpack, fft, lat] = stages_ns.map(|ns| ns as f64);
    let mut best = (1usize, f64::INFINITY);
    for k in 1..=max_k.max(1) {
        let t = t_pipelined_ext(pack, comm, unpack, fft, lat, k);
        if t < best.1 {
            best = (k, t);
        }
    }
    best.0
}

/// Largest chunk count the auto-k ladder considers. Past this the per-chunk
/// latency term dominates every configuration we bench; bounding the ladder
/// keeps the argmin scan O(1) per reshape.
const AUTO_K_MAX: usize = 16;

/// The borrowed step sequence and reshape specs of one direction: forward
/// as stored, inverse mirrored.
pub(crate) fn directed(plan: &FftPlan, dir: Direction) -> (Vec<&Step>, &[ReshapeSpec]) {
    match dir {
        Direction::Forward => (plan.steps.iter().collect(), &plan.reshapes),
        Direction::Inverse => (plan.steps.iter().rev().collect(), &plan.reshapes_rev),
    }
}

/// One rank's simulated timeline while a transform runs: when its GPU
/// finishes its latest kernel, when the current pipeline chunk's data is
/// available, and its event log.
pub(crate) struct Timeline<'a> {
    pub gpu_clock: &'a mut SimTime,
    pub data_ready: &'a mut SimTime,
    pub trace: &'a mut Trace,
}

impl Timeline<'_> {
    /// Books one GPU kernel of `ns`, no earlier than `gate`.
    fn kernel(&mut self, kind: KernelKind, gate: SimTime, ns: u64) {
        let start = (*self.gpu_clock).max(gate);
        let dur = SimTime::from_ns(ns);
        *self.gpu_clock = start + dur;
        self.trace.push(TraceEvent::Kernel { kind, start, dur });
    }

    /// Books a kernel that consumes and re-produces the chunk's data.
    fn kernel_on_data(&mut self, kind: KernelKind, ns: u64) {
        self.kernel(kind, *self.data_ready, ns);
        *self.data_ready = *self.gpu_clock;
    }
}

/// Everything that is constant over one run: the plan, the machine and
/// its kernel model, and the world/dry-run options both modes share.
pub(crate) struct RunEnv<'a> {
    pub plan: &'a FftPlan,
    pub machine: &'a MachineSpec,
    pub km: KernelTimeModel,
    pub gpu_aware: bool,
    pub distro: MpiDistro,
    /// Failure injection: per-rank GPU compute slowdown factors.
    pub slowdowns: &'a [(usize, f64)],
}

/// Reshape bytes of one exchange chunk on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ChunkBytes {
    /// Bytes the chunk's pack kernel touches (0 = no kernel).
    pub pack: usize,
    /// Bytes the chunk's unpack kernel touches (0 = no kernel).
    pub unpack: usize,
    /// The chunk's MPI-call payload as traced.
    pub wire: usize,
}

/// The owned next-axis transform a chunked reshape runs, grouped by the
/// chunk whose arrival completes each line (see
/// [`ReshapeSpec::recv_line_runs`]).
pub(crate) struct TransformAhead {
    pub axis: usize,
    pub runs: Vec<Vec<(usize, usize)>>,
}

/// One rank's reshape, lowered to plain data. `chunks.len()` is the
/// effective chunk count `k` of the rank's group; `1` is the monolithic
/// pack → exchange → unpack chain.
pub(crate) struct ReshapeSchedule {
    pub rank: usize,
    pub reshape: usize,
    pub to_dist: usize,
    pub items: usize,
    pub chunks: Vec<ChunkBytes>,
    /// P2P self block, moved by device copy outside MPI.
    pub self_bytes: usize,
    /// `Some` iff the schedule runs its op's owned transform per chunk.
    pub ahead: Option<TransformAhead>,
}

/// One plan step of one direction, lowered by [`RunEnv::program`]: a
/// whole-box `Step::LocalFft`, or a reshape.
pub(crate) enum Op {
    Fft { dist: usize, axis: usize },
    Reshape(ReshapeOp),
}

/// One `Step::Reshape`, lowered at every distinct item count of the plan's
/// pipeline chunks.
pub(crate) struct ReshapeOp {
    pub dir: Direction,
    /// Reshape index within the plan (the trace label).
    pub reshape: usize,
    pub from_dist: usize,
    pub to_dist: usize,
    /// Axis of the `LocalFft` step right behind this reshape when it runs
    /// in `to_dist`: the op owns that step. A chunked group runs it per
    /// chunk (transform-ahead), every other rank whole-box after the wire.
    pub next_axis: Option<usize>,
    /// `(items, groups)`: the groups with a lowered member, in group order.
    tables: Vec<(usize, Vec<LoweredGroup>)>,
}

impl ReshapeOp {
    /// The lowered groups of a pipeline chunk of `items` batch items.
    pub(crate) fn groups(&self, items: usize) -> &[LoweredGroup] {
        let table = self.tables.iter().find(|(n, _)| *n == items);
        table.map_or(&[], |(_, groups)| groups)
    }
}

/// One communication group of one reshape at one item count.
pub(crate) struct LoweredGroup {
    /// Effective chunk count (`1` = monolithic).
    pub k: usize,
    pub kind: ExchangeKind,
    /// How the machine is loaded while the exchange runs, with `phase_id`
    /// 0: each call applies its own as `PhaseEnv { phase_id, ..env }`.
    pub env: PhaseEnv,
    /// The byte matrix the group's exchange prices (see [`byte_rows`]):
    /// the lowered members' rows.
    pub rows: ByteRows,
    /// The lowered members' schedules, in group order.
    pub scheds: Vec<ReshapeSchedule>,
}

impl RunEnv<'_> {
    fn fft_kind(&self, axis: usize) -> KernelKind {
        KernelKind::Fft1d {
            axis,
            contiguous: self.plan.fft_layout(axis) == LayoutKind::Contiguous,
        }
    }

    /// Stamps a whole-box local FFT pass.
    pub(crate) fn local_fft(
        &self,
        tl: &mut Timeline,
        rank: usize,
        dist: usize,
        axis: usize,
        items: usize,
        first: bool,
    ) {
        let ns = self
            .plan
            .local_fft_ns(&self.km, dist, axis, rank, items, first);
        tl.kernel_on_data(self.fft_kind(axis), slowed_ns(self.slowdowns, rank, ns));
    }

    /// Lowers `dir`'s plan walk once into [`Op`]s: every group with a
    /// member `lowers` picks, at each distinct item count, with those
    /// members' schedules. Returns the ops and the schedule count.
    pub(crate) fn program(&self, dir: Direction, lowers: impl Fn(usize) -> bool) -> (Vec<Op>, u64) {
        let plan = self.plan;
        let (steps, specs) = directed(plan, dir);
        // Balanced chunks: the larger item count comes first.
        let mut item_counts: Vec<usize> = (0..plan.chunks()).map(|c| plan.chunk_items(c)).collect();
        item_counts.dedup();
        let (mut ops, mut lowered) = (Vec::new(), 0);
        let mut steps = steps.into_iter().peekable();
        while let Some(step) = steps.next() {
            let reshape = match *step {
                Step::LocalFft { dist, axis } => {
                    ops.push(Op::Fft { dist, axis });
                    continue;
                }
                Step::Reshape(reshape) => reshape,
            };
            // Every reshape step names one of the plan's specs.
            let Some(spec) = specs.get(reshape) else {
                continue;
            };
            let (from_dist, to_dist) = match dir {
                Direction::Forward => (reshape, reshape + 1),
                Direction::Inverse => (reshape + 1, reshape),
            };
            let next_axis = match steps.peek() {
                Some(&&Step::LocalFft { dist, axis }) if dist == to_dist => {
                    steps.next().map(|_| axis)
                }
                _ => None,
            };
            let mut op = ReshapeOp {
                dir,
                reshape,
                from_dist,
                to_dist,
                next_axis,
                tables: Vec::new(),
            };
            for &items in &item_counts {
                let picked = spec.groups.iter().filter(|g| g.iter().any(|&r| lowers(r)));
                let groups: Vec<_> = picked
                    .map(|g| self.lower(&op, spec, items, g, &lowers))
                    .collect();
                lowered += groups.iter().map(|g| g.scheds.len() as u64).sum::<u64>();
                op.tables.push((items, groups));
            }
            ops.push(Op::Reshape(op));
        }
        (ops, lowered)
    }

    /// Model-driven chunk count for one communication group: evaluates the
    /// group-level stage aggregates [`t_pipelined_ext`] needs — slowest
    /// member's pack/unpack kernels, slowest member's serialized wire
    /// time, and the next-axis FFT available for overlap — and returns the
    /// k-ladder argmin.
    ///
    /// Every input is a group-level aggregate (max over members), so every
    /// caller computes the same k without communicating. Wire time is
    /// priced per off-rank message of the members' non-zero byte `rows` on
    /// the spec's own latency/bandwidth figures; the per-chunk latency term
    /// charges two kernel launches (split pack + split unpack) plus one
    /// host sync per extra chunk.
    #[expect(
        clippy::indexing_slicing,
        reason = "row members are positions within `group`"
    )]
    fn auto_chunks(
        &self,
        op: &ReshapeOp,
        spec: &ReshapeSpec,
        items: usize,
        group: &[usize],
        rows: &ByteRows,
        pad: usize,
    ) -> usize {
        let (plan, machine) = (self.plan, self.machine);
        let p = group.len();
        if p <= 2 {
            return 1;
        }
        let ctx = simgrid::link::TransferCtx {
            gpu_aware: self.gpu_aware,
            offnode_flows_per_nic: machine.gpus_per_node.min(plan.nranks),
            nodes_involved: machine.nodes_for(plan.nranks),
        };
        let (mut t_pack, mut t_comm, mut t_unpack, mut t_fft) = (0u64, 0u64, 0u64, 0u64);
        for (i, &r) in group.iter().enumerate() {
            if plan.opts.backend.needs_pack() {
                let (pb, ub, _) = plan.group_local_bytes(spec, r, pad);
                t_pack = t_pack.max(plan.pack_ns(&self.km, pb * items));
                t_unpack = t_unpack.max(plan.unpack_ns(&self.km, ub * items));
            }
            let mut wire = 0u64;
            for &(j, bytes) in rows.row(i).iter().filter(|&&(j, _)| j != i) {
                wire += simgrid::link::message_time_ns(machine, bytes, r, group[j], &ctx);
            }
            t_comm = t_comm.max(wire);
            if let Some(axis) = op.next_axis {
                let ns = plan.local_fft_ns(&self.km, op.to_dist, axis, r, items, false);
                t_fft = t_fft.max(ns);
            }
        }
        let lat = 2 * machine.gpu.launch_ns + machine.gpu_call_sync_ns;
        argmin_chunks(
            [t_pack, t_comm, t_unpack, t_fft, lat],
            (p - 1).min(AUTO_K_MAX),
        )
    }

    /// Lowers one group of `op` at `items` batch items: its chunk count `k`
    /// (the plan's `reshape_chunks` through the per-group clamp, `0 = auto`
    /// through [`auto_chunks`](Self::auto_chunks)), its pricing policy and
    /// the schedule of each member `lowers` picks.
    ///
    /// A monolithic schedule takes its kernel bytes from
    /// [`FftPlan::reshape_local_bytes`] and traces the real off-rank
    /// payload; a chunked one takes its member's share of the group's
    /// [`chunk_byte_split`]. The two agree at `k = 1` for every backend but
    /// padded `AllToAll`, whose monolithic unpack is the amortized
    /// `real_recv.max(total/2)` while its chunks count whole padded blocks
    /// (on the wire too).
    #[expect(
        clippy::indexing_slicing,
        reason = "`op.to_dist` indexes `plan.dists`, `rank` is a group member, below `nranks`, and the split holds `k` chunks per member"
    )]
    fn lower(
        &self,
        op: &ReshapeOp,
        spec: &ReshapeSpec,
        items: usize,
        group: &[usize],
        lowers: impl Fn(usize) -> bool,
    ) -> LoweredGroup {
        let plan = self.plan;
        let backend = plan.opts.backend;
        let rows = byte_rows(spec, group, backend, items);
        let pad = match backend {
            CommBackend::AllToAll => spec.padded_block_bytes(group),
            _ => 0,
        };
        let requested = match plan.opts.reshape_chunks {
            0 => self.auto_chunks(op, spec, items, group, &rows, pad),
            n => n,
        };
        let k = effective_group_chunks(requested, group.len());
        let split = (k >= 2).then(|| chunk_byte_split(&rows, k));
        let members = group.iter().enumerate();
        let scheds = members.filter(|&(_, &rank)| lowers(rank));
        let scheds = scheds.map(|(me_sub, &rank)| {
            let (pack, unpack, self_bytes) = plan.group_local_bytes(spec, rank, pad);
            let mut chunks = match &split {
                None => vec![ChunkBytes {
                    pack: pack * items,
                    unpack: unpack * items,
                    wire: spec.offrank_send_bytes(rank) * items,
                }],
                Some(split) => split[me_sub * k..(me_sub + 1) * k].to_vec(),
            };
            if !backend.needs_pack() {
                for c in &mut chunks {
                    (c.pack, c.unpack) = (0, 0);
                }
            }
            let ahead = op.next_axis.filter(|_| k >= 2).map(|axis| {
                let to_box = plan.dists[op.to_dist].rank_box(rank);
                let runs = spec.recv_line_runs(rank, group, me_sub, k, to_box, axis);
                TransformAhead { axis, runs }
            });
            ReshapeSchedule {
                rank,
                reshape: op.reshape,
                to_dist: op.to_dist,
                items,
                chunks,
                self_bytes: self_bytes * items,
                ahead,
            }
        });
        let scheds: Vec<_> = scheds.collect();
        // A rank lowering its own schedule alone prices its own row alone.
        let rows = match scheds.len() == group.len() {
            true => rows,
            false => rows.only(|i| group.get(i).is_some_and(|&rank| lowers(rank))),
        };
        let kind = match backend {
            CommBackend::AllToAll => ExchangeKind::alltoall(self.distro),
            CommBackend::AllToAllV => ExchangeKind::alltoallv(),
            CommBackend::AllToAllW => ExchangeKind::alltoallw(self.distro),
            CommBackend::P2p => ExchangeKind::p2p(P2pFlavor::NonBlocking),
            CommBackend::P2pBlocking => ExchangeKind::p2p(P2pFlavor::Blocking),
        };
        LoweredGroup {
            k,
            kind: kind.partitioned(k >= 2),
            env: PhaseEnv {
                gpu_aware: self.gpu_aware,
                flows_per_nic: self.machine.gpus_per_node.min(plan.nranks),
                nodes: self.machine.nodes_for(plan.nranks),
                p2p_peers: 1,
                phase_id: 0,
            },
            scheds,
            rows,
        }
    }
}

impl ReshapeSchedule {
    /// Monolithic and chunked schedules gate differently: a monolithic
    /// exchange enters when the chunk's *data* is ready and hands it on at
    /// its exit (or the end of its unpack); a chunked one posts each chunk
    /// once the *GPU* has drained too, and hands the data on no earlier
    /// than the GPU's last kernel. They differ whenever no kernel brackets
    /// the exchange — `AllToAllW`, or a later batch chunk of a rank with
    /// nothing to pack.
    fn gates_on_gpu(&self) -> bool {
        self.chunks.len() >= 2
    }

    /// Stamps everything before the wire — each chunk's pack kernel and,
    /// behind the first, the P2P self-copy, serialized on the GPU — and
    /// pushes onto `entries` when each chunk's payload is postable.
    pub(crate) fn before_exchange(
        &self,
        env: &RunEnv,
        tl: &mut Timeline,
        entries: &mut Vec<SimTime>,
    ) {
        let slowed = |ns| slowed_ns(env.slowdowns, self.rank, ns);
        for (k, chunk) in self.chunks.iter().enumerate() {
            if chunk.pack > 0 {
                let ns = env.plan.pack_ns(&env.km, chunk.pack);
                tl.kernel_on_data(KernelKind::Pack, slowed(ns));
            }
            if k == 0 && self.self_bytes > 0 {
                let ns = env.plan.selfcopy_ns(env.machine, self.self_bytes);
                tl.kernel_on_data(KernelKind::SelfCopy, slowed(ns));
            }
            entries.push(if self.gates_on_gpu() {
                (*tl.gpu_clock).max(*tl.data_ready)
            } else {
                *tl.data_ready
            });
        }
    }

    /// Stamps everything after the wire, given when each chunk was posted
    /// (`entries`), when its receives had landed (`ready`) and when the
    /// call exited: one MPI-call event per chunk, in chunk order on every
    /// rank (the occurrence-matched pairing fftprof's critical path relies
    /// on) — a chunk's call spans posting to chunk completion, the last
    /// one also covers the member's overall exit — then each chunk's
    /// unpack kernel, eligible as soon as its receives have landed, and
    /// right behind it the butterflies of the lines it completed
    /// (transform-ahead). `first_ahead` charges the strided first-call
    /// spike to the first chunk that actually transforms lines, exactly as
    /// the whole-box pass would.
    #[expect(
        clippy::indexing_slicing,
        reason = "`entries`, `ready` and the transform-ahead runs hold one entry per chunk of this schedule, which has at least one"
    )]
    pub(crate) fn after_exchange(
        &self,
        env: &RunEnv,
        tl: &mut Timeline,
        entries: &[SimTime],
        ready: &[SimTime],
        exit: SimTime,
        mut first_ahead: bool,
    ) {
        let slowed = |ns| slowed_ns(env.slowdowns, self.rank, ns);
        let last = self.chunks.len() - 1;
        for (k, chunk) in self.chunks.iter().enumerate() {
            let start = entries[k];
            let end = if k == last {
                exit.max(ready[k])
            } else {
                ready[k]
            }
            .max(start);
            tl.trace.push(TraceEvent::MpiCall {
                reshape: self.reshape,
                routine: env.plan.opts.backend.routine(),
                start,
                dur: end - start,
                bytes: chunk.wire,
            });
        }
        let mut done = exit;
        for (k, chunk) in self.chunks.iter().enumerate() {
            if chunk.unpack > 0 {
                let ns = env.plan.unpack_ns(&env.km, chunk.unpack);
                tl.kernel(KernelKind::Unpack, ready[k], slowed(ns));
                done = *tl.gpu_clock;
            }
            let Some(ahead) = &self.ahead else { continue };
            let lines: usize = ahead.runs[k].iter().map(|&(lo, hi)| hi - lo).sum();
            if lines > 0 {
                let ns = env.plan.local_fft_lines_ns(
                    &env.km,
                    self.to_dist,
                    ahead.axis,
                    self.rank,
                    self.items,
                    lines,
                    std::mem::take(&mut first_ahead),
                );
                tl.kernel(env.fft_kind(ahead.axis), ready[k], slowed(ns));
            }
        }
        *tl.data_ready = if self.gates_on_gpu() {
            (*tl.gpu_clock).max(exit)
        } else {
            done
        };
    }
}

/// A group's byte matrix as non-zero rows: member `i`'s `(member, bytes)`
/// pairs, members as positions in the group, sorted, are
/// `pairs[spans[i]]`. Padded `AllToAll`'s members all share one row.
pub(crate) struct ByteRows {
    pairs: Vec<(usize, usize)>,
    spans: Vec<std::ops::Range<usize>>,
}

impl ByteRows {
    /// Member `i`'s row; empty past the group.
    pub(crate) fn row(&self, i: usize) -> &[(usize, usize)] {
        let span = self.spans.get(i).cloned();
        span.and_then(|span| self.pairs.get(span)).unwrap_or(&[])
    }

    /// The group size.
    fn members(&self) -> usize {
        self.spans.len()
    }

    /// The rows of the members `keep` picks; the others are emptied.
    fn only(&self, keep: impl Fn(usize) -> bool) -> ByteRows {
        let (mut pairs, mut spans) = (Vec::new(), Vec::with_capacity(self.members()));
        for i in 0..self.members() {
            let start = pairs.len();
            if keep(i) {
                pairs.extend_from_slice(self.row(i));
            }
            spans.push(start..pairs.len());
        }
        ByteRows { pairs, spans }
    }
}

/// What each member of `group` puts on the wire to each member at `items`
/// batch items, as the non-zero rows both interpreters price. Padded
/// `AllToAll` sends every member, itself included, the group's largest
/// block; P2P sends itself nothing (its self block is a device copy
/// outside MPI); every other pair sends its region. A group is a
/// connected component of the flow graph, so every flow of a member stays
/// inside it.
pub(crate) fn byte_rows(
    spec: &ReshapeSpec,
    group: &[usize],
    backend: CommBackend,
    items: usize,
) -> ByteRows {
    let p = group.len();
    if backend == CommBackend::AllToAll {
        let block = spec.padded_block_bytes(group) * items;
        let pairs: Vec<_> = (0..p).filter(|_| block > 0).map(|j| (j, block)).collect();
        let spans = vec![0..pairs.len(); p];
        return ByteRows { pairs, spans };
    }
    let flows = |rank: usize| spec.sends.get(rank).map_or(&[][..], Vec::as_slice);
    let flow_count = group.iter().map(|&rank| flows(rank).len()).sum();
    let (mut pairs, mut spans) = (Vec::with_capacity(flow_count), Vec::with_capacity(p));
    for &rank in group {
        let start = pairs.len();
        for (dst, region) in flows(rank) {
            let bytes = region.volume() * ELEM_BYTES * items;
            match group.binary_search(dst) {
                Ok(j) if bytes > 0 && !(backend.is_p2p() && *dst == rank) => pairs.push((j, bytes)),
                _ => {}
            }
        }
        spans.push(start..pairs.len());
    }
    ByteRows { pairs, spans }
}

/// Splits every member's reshape bytes, given the group's non-zero byte
/// `rows`, into `k` per-chunk totals under the global partition function,
/// so sender and receiver agree on every message's chunk: member-major,
/// `k` chunks per member. A message `i → j` of `b` bytes adds `b` to
/// `i`'s pack and wire and to `j`'s unpack, in the chunk of its step
/// `(j − i) mod p`; a self block belongs to chunk 0 on both sides and
/// stays off the wire (the P2P one is absent: it moves by device copy,
/// exactly as in [`FftPlan::reshape_local_bytes`]).
#[expect(
    clippy::indexing_slicing,
    reason = "row members are positions below `p`, so steps are too, and `partition_of_step` returns a chunk below `k`"
)]
pub(crate) fn chunk_byte_split(rows: &ByteRows, k: usize) -> Vec<ChunkBytes> {
    let p = rows.members();
    // The chunk of each step, the self block's step 0 included.
    let chunk_of: Vec<usize> = (0..p)
        .map(|step| match step {
            0 => 0,
            _ => partition_of_step(step, p, k),
        })
        .collect();
    let mut chunks = vec![ChunkBytes::default(); p * k];
    for i in 0..p {
        for &(j, b) in rows.row(i) {
            let part = chunk_of[if j >= i { j - i } else { j + p - i }];
            let sent = &mut chunks[i * k + part];
            sent.pack += b;
            sent.wire += if i == j { 0 } else { b };
            chunks[j * k + part].unpack += b;
        }
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procgrid::Distribution;

    fn brick_to_pencil() -> (ReshapeSpec, Vec<usize>) {
        let a = Distribution::new([8, 8, 8], [2, 2, 2], 8);
        let b = Distribution::new([8, 8, 8], [1, 2, 4], 8);
        (ReshapeSpec::build(&a, &b), (0..8).collect())
    }

    fn totals(chunks: &[ChunkBytes]) -> ChunkBytes {
        chunks
            .iter()
            .fold(ChunkBytes::default(), |a, c| ChunkBytes {
                pack: a.pack + c.pack,
                unpack: a.unpack + c.unpack,
                wire: a.wire + c.wire,
            })
    }

    #[test]
    fn chunk_byte_split_conserves_reshape_totals() {
        let (spec, members) = brick_to_pencil();
        let items = 3usize;
        for k in [1usize, 2, 4, 7] {
            for (me_sub, &me) in members.iter().enumerate() {
                for backend in [CommBackend::AllToAllV, CommBackend::P2p] {
                    let rows = byte_rows(&spec, &members, backend, items);
                    let t = totals(&chunk_byte_split(&rows, k)[me_sub * k..(me_sub + 1) * k]);
                    let self_b = spec.bytes(me, me) * items * usize::from(!backend.is_p2p());
                    assert_eq!(t.wire, spec.offrank_send_bytes(me) * items);
                    assert_eq!(t.pack, t.wire + self_b);
                    assert_eq!(t.unpack, spec.offrank_recv_bytes(me) * items + self_b);
                }
            }
        }
    }

    #[test]
    fn chunk_byte_split_padded_counts_whole_blocks() {
        let (spec, members) = brick_to_pencil();
        let items = 2usize;
        let pad = spec.padded_block_bytes(&members) * items;
        let p = members.len();
        let rows = byte_rows(&spec, &members, CommBackend::AllToAll, items);
        for k in [2usize, 4, 7] {
            for me_sub in 0..p {
                let chunks = &chunk_byte_split(&rows, k)[me_sub * k..(me_sub + 1) * k];
                // Padded accounting: every block is the group max — p packed
                // and unpacked blocks (self included), p − 1 on the wire.
                let t = totals(chunks);
                assert_eq!(
                    (t.pack, t.unpack, t.wire),
                    (pad * p, pad * p, pad * (p - 1))
                );
                // Chunk 0 always carries the self block.
                assert!(chunks[0].pack >= pad && chunks[0].unpack >= pad);
            }
        }
    }

    #[test]
    fn auto_chunks_prefers_one_when_nothing_overlaps() {
        // Zero comm and zero fft: splitting only adds latency.
        assert_eq!(argmin_chunks([1000, 0, 1000, 0, 500], 8), 1);
        // Latency-free with a dominant wire: more chunks always help, so
        // the ladder cap wins.
        assert_eq!(argmin_chunks([1000, 100_000, 1000, 0, 0], 8), 8);
    }

    #[test]
    fn auto_chunks_finds_interior_optimum() {
        // Comparable stages with real per-chunk latency: the argmin lands
        // strictly inside the ladder.
        let k = argmin_chunks([40_000, 120_000, 40_000, 60_000, 9_000], 16);
        assert!(k > 1 && k < 16, "interior optimum, got {k}");
    }
}
