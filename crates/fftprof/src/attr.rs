//! Per-rank phase attribution in simulated time.
//!
//! Splits the profiled window into seven mutually exclusive phases per
//! rank — compute, pack, unpack, self-copy, send, recv-wait, idle — with
//! the invariant that every rank's phases sum *exactly* to the trace
//! makespan. The attribution is an integer-nanosecond timeline sweep:
//! the window is cut at every event boundary and each elementary segment
//! is owned by the highest-priority phase covering it, so overlapping
//! lanes (pipelined chunks overlap kernels with exchanges) can never be
//! double-counted.
//!
//! ## Attribution rules
//!
//! * Local kernels map directly: FFT and pointwise → *compute*; pack,
//!   unpack and the P2P self block keep their own phases.
//! * An MPI exchange call is split in two: the first
//!   [`ideal_call_ns`] nanoseconds — the quiet-network cost of injecting
//!   this rank's payload — are *send*; the remainder of the call is
//!   *recv-wait* (waiting on peers, receiving, and link queuing).
//! * Time covered by no event is *idle*. Kernels outrank communication
//!   when both cover a segment (GPU progress is real work; the overlapped
//!   exchange is free).

use distfft::plan::FftPlan;
use distfft::trace::{KernelKind, Trace, TraceEvent};
use simgrid::link::message_time_ns;
use simgrid::{MachineSpec, TransferCtx};

/// One attribution phase, in priority order (lower discriminant wins a
/// contested segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// FFT and pointwise kernels.
    Compute = 0,
    /// Pack kernels (staging send buffers).
    Pack = 1,
    /// Unpack kernels (depositing receive buffers).
    Unpack = 2,
    /// The on-rank self block device copy of a P2P reshape.
    SelfCopy = 3,
    /// The quiet-network share of an MPI call: injecting this rank's
    /// payload.
    Send = 4,
    /// The rest of an MPI call: waiting on peers, receiving, queuing.
    RecvWait = 5,
    /// Time covered by no event.
    Idle = 6,
}

/// All phases, in priority order.
pub const PHASES: [Phase; 7] = [
    Phase::Compute,
    Phase::Pack,
    Phase::Unpack,
    Phase::SelfCopy,
    Phase::Send,
    Phase::RecvWait,
    Phase::Idle,
];

impl Phase {
    /// Stable lower-case label (used in reports and collapsed stacks).
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Compute => "compute",
            Phase::Pack => "pack",
            Phase::Unpack => "unpack",
            Phase::SelfCopy => "self-copy",
            Phase::Send => "send",
            Phase::RecvWait => "recv-wait",
            Phase::Idle => "idle",
        }
    }

    /// True for phases that represent communication (send or recv-wait).
    pub fn is_comm(&self) -> bool {
        matches!(self, Phase::Send | Phase::RecvWait)
    }
}

/// Nanoseconds attributed to each phase (indexed by `Phase as usize`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Per-phase totals, indexed by `Phase as usize`.
    pub ns: [u64; 7],
    /// Compute time that ran *under an in-flight exchange* — the
    /// transform-ahead butterflies (DESIGN.md §14) whose segments a
    /// kernel won by priority while an MPI call also covered them. A side
    /// account, **not** an eighth phase: the seven `ns` entries alone tile
    /// the window, and `overlap_ns` is always ≤ the compute entry.
    pub overlap_ns: u64,
}

impl PhaseBreakdown {
    /// Nanoseconds attributed to `p`.
    pub fn get(&self, p: Phase) -> u64 {
        self.ns[p as usize]
    }

    /// Sum over all phases (equals the window width by construction).
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Communication total: send + recv-wait.
    pub fn comm_ns(&self) -> u64 {
        self.get(Phase::Send) + self.get(Phase::RecvWait)
    }
}

/// The per-rank phase attribution table over a common time window.
#[derive(Debug, Clone, Default)]
pub struct PhaseTable {
    /// Profiled window `[start, end)` in simulated nanoseconds (the union
    /// extent of all events on all ranks).
    pub window: (u64, u64),
    /// One breakdown per rank; each sums exactly to `makespan_ns()`.
    pub per_rank: Vec<PhaseBreakdown>,
}

impl PhaseTable {
    /// Width of the profiled window — the trace makespan.
    pub fn makespan_ns(&self) -> u64 {
        self.window.1 - self.window.0
    }

    /// Element-wise sum over ranks.
    pub fn totals(&self) -> PhaseBreakdown {
        let mut t = PhaseBreakdown::default();
        for r in &self.per_rank {
            for i in 0..7 {
                t.ns[i] += r.ns[i];
            }
            t.overlap_ns += r.overlap_ns;
        }
        t
    }

    /// Per-phase maximum across ranks (the wall-clock-relevant view).
    pub fn max_over_ranks(&self) -> PhaseBreakdown {
        let mut t = PhaseBreakdown::default();
        for r in &self.per_rank {
            for i in 0..7 {
                t.ns[i] = t.ns[i].max(r.ns[i]);
            }
            t.overlap_ns = t.overlap_ns.max(r.overlap_ns);
        }
        t
    }
}

/// Exchange-group topology of a run, precomputed from the plan: which
/// ranks exchange together in each reshape and whether that group spans
/// nodes (its traffic crosses the NIC) or stays on intra-node links.
#[derive(Debug, Clone)]
pub struct RunShape {
    /// `groups[ri]` — the communication groups of reshape `ri`.
    pub groups: Vec<Vec<Vec<usize>>>,
    /// `group_of[ri][rank]` — the group index of `rank` in reshape `ri`.
    pub group_of: Vec<Vec<Option<usize>>>,
    /// `inter[ri][rank]` — true when the rank's group spans >1 node.
    pub inter: Vec<Vec<bool>>,
    /// GPU-aware MPI on/off (staged transfers pay host hops).
    pub gpu_aware: bool,
}

impl RunShape {
    /// Derives the shape from a plan's forward reshapes (reverse reshapes
    /// share the same group structure — `ReshapeSpec::reversed` keeps it).
    pub fn from_plan(plan: &FftPlan, machine: &MachineSpec, gpu_aware: bool) -> RunShape {
        let mut groups = Vec::with_capacity(plan.reshapes.len());
        let mut group_of = Vec::with_capacity(plan.reshapes.len());
        let mut inter = Vec::with_capacity(plan.reshapes.len());
        for spec in &plan.reshapes {
            let spans: Vec<bool> = spec
                .groups
                .iter()
                .map(|g| {
                    let mut nodes = g.iter().map(|&r| machine.node_of(r));
                    let first = nodes.next();
                    nodes.any(|n| Some(n) != first)
                })
                .collect();
            let per_rank_inter: Vec<bool> = spec
                .group_of
                .iter()
                .map(|g| g.map(|gi| spans[gi]).unwrap_or(false))
                .collect();
            groups.push(spec.groups.clone());
            group_of.push(spec.group_of.clone());
            inter.push(per_rank_inter);
        }
        RunShape {
            groups,
            group_of,
            inter,
            gpu_aware,
        }
    }

    /// Whether reshape `ri` crosses nodes for `rank` (false when the
    /// reshape index is unknown — defensive for hand-built traces).
    pub fn is_inter(&self, ri: usize, rank: usize) -> bool {
        self.inter
            .get(ri)
            .and_then(|v| v.get(rank))
            .copied()
            .unwrap_or(true)
    }
}

/// Quiet-network cost (ns) of one exchange call moving `bytes` of this
/// rank's payload: the simulator's own link law between rank 0 and a peer
/// on the same (`!inter`) or the next node, under
/// [`TransferCtx::quiet`] with the run's GPU-awareness.
pub fn ideal_call_ns(spec: &MachineSpec, bytes: usize, inter: bool, gpu_aware: bool) -> u64 {
    let peer = if inter { spec.gpus_per_node } else { 1 };
    let ctx = TransferCtx {
        gpu_aware,
        ..TransferCtx::quiet()
    };
    message_time_ns(spec, bytes, 0, peer, &ctx)
}

/// Phase of a kernel event.
pub(crate) fn kernel_phase(kind: &KernelKind) -> Phase {
    match kind {
        KernelKind::Fft1d { .. } | KernelKind::Pointwise => Phase::Compute,
        KernelKind::Pack => Phase::Pack,
        KernelKind::Unpack => Phase::Unpack,
        KernelKind::SelfCopy => Phase::SelfCopy,
    }
}

/// The union time extent of all events across ranks, `(min start, max
/// end)`; `(0, 0)` for an empty trace set.
pub fn window(traces: &[Trace]) -> (u64, u64) {
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    let mut any = false;
    for t in traces {
        for e in &t.events {
            let (s, d) = match e {
                TraceEvent::MpiCall { start, dur, .. } => (start.as_ns(), dur.as_ns()),
                TraceEvent::Kernel { start, dur, .. } => (start.as_ns(), dur.as_ns()),
            };
            lo = lo.min(s);
            hi = hi.max(s + d);
            any = true;
        }
    }
    if any {
        (lo, hi)
    } else {
        (0, 0)
    }
}

/// Phase intervals of one rank's events (an MPI call contributes a send
/// interval followed by a recv-wait interval).
fn intervals(
    rank: usize,
    trace: &Trace,
    shape: &RunShape,
    machine: &MachineSpec,
) -> Vec<(Phase, u64, u64)> {
    let mut out = Vec::with_capacity(trace.events.len() + 8);
    for e in &trace.events {
        match e {
            TraceEvent::Kernel { kind, start, dur } => {
                out.push((
                    kernel_phase(kind),
                    start.as_ns(),
                    start.as_ns() + dur.as_ns(),
                ));
            }
            TraceEvent::MpiCall {
                reshape,
                start,
                dur,
                bytes,
                ..
            } => {
                let s = start.as_ns();
                let f = s + dur.as_ns();
                let inter = shape.is_inter(*reshape, rank);
                let send = ideal_call_ns(machine, *bytes, inter, shape.gpu_aware).min(dur.as_ns());
                out.push((Phase::Send, s, s + send));
                out.push((Phase::RecvWait, s + send, f));
            }
        }
    }
    out
}

/// Priority sweep over one rank's intervals: cuts the window at every
/// boundary and hands each segment to the highest-priority covering phase
/// (idle when none covers it). Exact in integer nanoseconds, so the
/// per-phase totals sum to precisely `w1 - w0`.
fn sweep(ivs: &[(Phase, u64, u64)], w0: u64, w1: u64) -> PhaseBreakdown {
    let mut cuts: Vec<u64> = Vec::with_capacity(ivs.len() * 2 + 2);
    cuts.push(w0);
    cuts.push(w1);
    for &(_, s, f) in ivs {
        cuts.push(s.clamp(w0, w1));
        cuts.push(f.clamp(w0, w1));
    }
    cuts.sort_unstable();
    cuts.dedup();

    let mut bd = PhaseBreakdown::default();
    for pair in cuts.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if b <= a {
            continue;
        }
        // The covering set is constant inside (a, b); probe the midpoint.
        let mid = a + (b - a) / 2;
        let mut owner = Phase::Idle;
        let mut under_wire = false;
        for &(p, s, f) in ivs {
            if s <= mid && mid < f {
                if p < owner {
                    owner = p;
                }
                under_wire |= p.is_comm();
            }
        }
        bd.ns[owner as usize] += b - a;
        // Compute that won a segment an exchange also covers is the
        // transform-ahead overlap: book it on the side so the makespan
        // tiling stays exact while the hidden wire time stays visible.
        if owner == Phase::Compute && under_wire {
            bd.overlap_ns += b - a;
        }
    }
    bd
}

impl PhaseTable {
    /// Builds the attribution table for a set of per-rank traces over
    /// their common window.
    pub fn build(traces: &[Trace], shape: &RunShape, machine: &MachineSpec) -> PhaseTable {
        let (w0, w1) = window(traces);
        let per_rank = traces
            .iter()
            .enumerate()
            .map(|(r, t)| sweep(&intervals(r, t, shape, machine), w0, w1))
            .collect();
        PhaseTable {
            window: (w0, w1),
            per_rank,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfft::plan::{FftOptions, FftPlan};
    use distfft::trace::TraceEvent;
    use simgrid::SimTime;

    fn shape_for(n: usize) -> (RunShape, MachineSpec) {
        let machine = MachineSpec::summit();
        let plan = FftPlan::build([32, 32, 32], n, FftOptions::default());
        (RunShape::from_plan(&plan, &machine, true), machine)
    }

    fn kern(kind: KernelKind, start: u64, dur: u64) -> TraceEvent {
        TraceEvent::Kernel {
            kind,
            start: SimTime::from_ns(start),
            dur: SimTime::from_ns(dur),
        }
    }

    fn mpi(reshape: usize, start: u64, dur: u64, bytes: usize) -> TraceEvent {
        TraceEvent::MpiCall {
            reshape,
            routine: "MPI_Alltoallv",
            start: SimTime::from_ns(start),
            dur: SimTime::from_ns(dur),
            bytes,
        }
    }

    #[test]
    fn ideal_is_the_link_law() {
        // The send/recv-wait split must use what the simulator charges a
        // quiet message — on every path, GPU-aware or staged.
        let spec = MachineSpec::summit();
        for (inter, peer) in [(false, 1), (true, spec.gpus_per_node)] {
            for gpu_aware in [true, false] {
                let ctx = TransferCtx {
                    gpu_aware,
                    ..TransferCtx::quiet()
                };
                for bytes in [0, 8, 4 << 10, 1 << 20, 64 << 20] {
                    assert_eq!(
                        ideal_call_ns(&spec, bytes, inter, gpu_aware),
                        message_time_ns(&spec, bytes, 0, peer, &ctx),
                        "inter={inter} gpu_aware={gpu_aware} bytes={bytes}"
                    );
                }
            }
        }
        // Staged intra-node: two host hops, no NVLink wire term.
        let staged = |bytes| ideal_call_ns(&spec, bytes, false, false);
        assert_eq!(
            [staged(4 << 10), staged(1 << 20), staged(64 << 20)],
            [2_738, 107_186, 6_713_215]
        );
    }

    #[test]
    fn phases_partition_the_window_exactly() {
        let (shape, machine) = shape_for(12);
        let mut a = Trace::new();
        a.push(kern(
            KernelKind::Fft1d {
                axis: 2,
                contiguous: true,
            },
            0,
            100,
        ));
        a.push(kern(KernelKind::Pack, 100, 50));
        a.push(mpi(0, 150, 10_000, 1 << 20));
        a.push(kern(KernelKind::Unpack, 10_150, 40));
        let mut b = Trace::new();
        b.push(kern(
            KernelKind::Fft1d {
                axis: 2,
                contiguous: true,
            },
            500,
            2_000,
        ));
        let table = PhaseTable::build(&[a, b], &shape, &machine);
        let makespan = table.makespan_ns();
        assert!(makespan > 0);
        for (r, bd) in table.per_rank.iter().enumerate() {
            assert_eq!(bd.total_ns(), makespan, "rank {r} phases must tile");
        }
        // Rank 1 is idle outside its one kernel.
        assert_eq!(
            table.per_rank[1].get(Phase::Idle),
            makespan - 2_000,
            "{table:?}"
        );
    }

    #[test]
    fn overlapping_kernel_wins_over_the_exchange() {
        let (shape, machine) = shape_for(12);
        let mut t = Trace::new();
        // Pipelined chunk: a 1000 ns kernel fully inside a 4000 ns call.
        t.push(mpi(0, 0, 4_000, 0));
        t.push(kern(
            KernelKind::Fft1d {
                axis: 1,
                contiguous: false,
            },
            1_000,
            1_000,
        ));
        let table = PhaseTable::build(&[t], &shape, &machine);
        let bd = &table.per_rank[0];
        assert_eq!(bd.get(Phase::Compute), 1_000);
        assert_eq!(bd.total_ns(), 4_000);
        // The kernel's 1000 ns came out of the call's budget, not on top.
        assert_eq!(bd.comm_ns(), 3_000);
    }

    #[test]
    fn mpi_call_splits_into_send_then_recv_wait() {
        let (shape, machine) = shape_for(12);
        let bytes = 4 << 20;
        let inter = shape.is_inter(0, 0);
        let ideal = ideal_call_ns(&machine, bytes, inter, true);
        let dur = ideal * 3;
        let mut t = Trace::new();
        t.push(mpi(0, 0, dur, bytes));
        let table = PhaseTable::build(&[t], &shape, &machine);
        let bd = &table.per_rank[0];
        assert_eq!(bd.get(Phase::Send), ideal);
        assert_eq!(bd.get(Phase::RecvWait), dur - ideal);
    }

    #[test]
    fn ideal_cost_orders_sensibly() {
        let m = MachineSpec::summit();
        let b = 1 << 20;
        let intra = ideal_call_ns(&m, b, false, true);
        let inter = ideal_call_ns(&m, b, true, true);
        let staged = ideal_call_ns(&m, b, true, false);
        assert!(intra < inter, "{intra} vs {inter}");
        assert!(inter < staged, "{inter} vs {staged}");
    }
}
