//! The closed loop of the four functional workloads: one driver, one rank
//! thread per simulated rank, ops back to back, every op verified.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use distfft::exec::{bind, execute, BoundPlan, ExecCtx};
use distfft::plan::FftPlan;
use distfft::real3d::Real3dPlan;
use distfft::{Box3, PoolStats, Trace};
use fftkern::{Direction, C64};
use mpisim::comm::{Comm, Rank, World};

use crate::spans::SpanLog;
use crate::util::{freq_probe_us, median, nan_max, to_nominal, within};
use crate::workloads::{
    extract_real, machine, oracle_spectrum, world_opts, Input, Plans, Workload,
};

/// Untimed ops before the first timed one (caches, pools, first-call
/// spikes of the kernel model).
pub const WARMUP_OPS: u64 = 3;
/// The simulated clock is read over ops `[SIM_FROM, SIM_TO)`, counted from
/// the first warm-up op: late enough that the r2c pipeline's simulated
/// transient (5 ops) has died out, an even count because `small-32x24`
/// settles into a two-op cycle. The first timed segment never stops
/// before op `SIM_TO`.
pub const SIM_FROM: u64 = 8;
pub const SIM_TO: u64 = 16;
/// Scaled round-trip tolerance (inputs are uniform in [-1, 1)).
pub const ROUNDTRIP_TOL: f64 = 1e-11;
/// Forward output vs the serial oracle, relative max-norm.
pub const ORACLE_TOL: f64 = 1e-10;

/// One stretch of the loop. The warm-up is a segment of zero seconds.
pub struct Segment {
    pub seconds: f64,
    pub min_ops: u64,
    /// Run with `fftobs` enabled and harness spans around each transform.
    pub traced: bool,
}

/// Rank 0's view of one segment.
#[derive(Default)]
pub struct SegmentStats {
    pub op_ms: Vec<f64>,
    pub fwd_ms: Vec<f64>,
    pub inv_ms: Vec<f64>,
    /// Seconds from the segment's first barrier to the end of each op's
    /// verification and input restore.
    pub done_s: Vec<f64>,
    /// The frequency probe read just before each op, microseconds.
    pub probe_us: Vec<f64>,
}

/// The two loop figures of a timed segment, raw and normalised to the
/// host's nominal clock.
pub struct LoopFigures {
    pub op_ms_p50: f64,
    pub ops_per_s: f64,
    pub raw_op_ms_p50: f64,
    pub raw_ops_per_s: f64,
}

impl SegmentStats {
    /// The run is cut into ten blocks of consecutive ops. Each block's
    /// times are scaled by its own median frequency probe, so a turbo-bin
    /// change of the host (the dominant noise here: ±15 % for seconds at a
    /// time) cancels instead of moving the figure.
    ///
    /// * `op_ms_p50`: median over ops of the scaled op wall time.
    /// * `ops_per_s`: verified ops per second of loop time (verification,
    ///   input restore, probe and inter-op barrier included) — the median
    ///   of the ten scaled block rates, so one burst of scheduling noise
    ///   moves a block, not the metric.
    pub fn figures(&self) -> LoopFigures {
        let block = (self.op_ms.len() / 10).max(1);
        let (mut scaled_ms, mut rates, mut raw_rates) = (Vec::new(), Vec::new(), Vec::new());
        let mut block_start = 0.0;
        for ((ms, done), probes) in self
            .op_ms
            .chunks(block)
            .zip(self.done_s.chunks(block))
            .zip(self.probe_us.chunks(block))
        {
            let f = to_nominal(median(probes));
            scaled_ms.extend(ms.iter().map(|m| m * f));
            if ms.len() == block {
                let end = done[block - 1];
                raw_rates.push(block as f64 / (end - block_start));
                rates.push(block as f64 / ((end - block_start) * f));
                block_start = end;
            }
        }
        LoopFigures {
            op_ms_p50: median(&scaled_ms),
            ops_per_s: median(&rates),
            raw_op_ms_p50: median(&self.op_ms),
            raw_ops_per_s: median(&raw_rates),
        }
    }
}

pub struct RankOutcome {
    /// Scaled round-trip error of every op this rank took part in.
    pub errs: Vec<f64>,
    /// This rank's block of the first forward output.
    pub first_spectrum: Vec<C64>,
    /// Simulated clock after op 0, op `SIM_FROM - 1` and op `SIM_TO - 1`.
    pub sim_marks: [u64; 3],
    /// Forward and inverse traces of op `SIM_TO - 1` (c2c only; the r2c
    /// entry points return none).
    pub sim_traces: Vec<Trace>,
    pub pool: PoolStats,
    pub bind_ms: f64,
}

pub struct LoopOutcome {
    /// One entry per rank; empty for the analytic workload.
    pub ranks: Vec<RankOutcome>,
    /// Per segment, from rank 0.
    pub segments: Vec<SegmentStats>,
    /// Rank 0's spans of the traced segment.
    pub spans: SpanLog,
    /// `fftobs` counters accumulated over the traced segment.
    pub counters: fftobs::MetricsSnapshot,
}

/// One rank's transform state. Both kinds restore their input from a
/// pristine copy outside the timed region, so the round-trip error is the
/// same number on every op.
enum RankState<'p> {
    C2c {
        plan: &'p FftPlan,
        bound: BoundPlan,
        pristine: Vec<C64>,
        data: Vec<Vec<C64>>,
    },
    R2c {
        plan: &'p Real3dPlan,
        bound: (BoundPlan, BoundPlan),
        pristine: Vec<f64>,
        spectrum: Vec<C64>,
        back: Vec<f64>,
    },
}

impl<'p> RankState<'p> {
    /// Builds the rank's state; also returns the milliseconds spent in
    /// `bind` (the collective sub-communicator splits).
    fn new(
        plans: &'p Plans,
        input: &Input,
        dims: [usize; 3],
        rank: &mut Rank,
        comm: &Comm,
    ) -> (Self, f64) {
        let me = rank.rank();
        match (plans, input) {
            (Plans::C2c(plan), Input::Complex(global)) => {
                let pristine = Box3::whole(dims).extract(global, plan.dists[0].rank_box(me));
                let t = Instant::now();
                let bound = bind(plan, rank, comm);
                let bind_ms = t.elapsed().as_secs_f64() * 1e3;
                let state = RankState::C2c {
                    plan,
                    bound,
                    data: vec![pristine.clone()],
                    pristine,
                };
                (state, bind_ms)
            }
            (Plans::R2c(plan), Input::Real(global)) => {
                let pristine = extract_real(global, dims, &plan.real_input_box(me));
                let t = Instant::now();
                let bound = plan.bind(rank, comm);
                let bind_ms = t.elapsed().as_secs_f64() * 1e3;
                let state = RankState::R2c {
                    plan,
                    bound,
                    pristine,
                    spectrum: Vec::new(),
                    back: Vec::new(),
                };
                (state, bind_ms)
            }
            _ => unreachable!("input kind matches workload kind"),
        }
    }

    fn forward(&mut self, ctx: &mut ExecCtx, rank: &mut Rank, comm: &Comm) -> Option<Trace> {
        match self {
            RankState::C2c {
                plan, bound, data, ..
            } => Some(execute(plan, bound, ctx, rank, comm, data, Direction::Forward).trace),
            RankState::R2c {
                plan,
                bound,
                pristine,
                spectrum,
                ..
            } => {
                *spectrum = plan.execute_forward(bound, ctx, rank, comm, pristine);
                None
            }
        }
    }

    fn inverse(&mut self, ctx: &mut ExecCtx, rank: &mut Rank, comm: &Comm) -> Option<Trace> {
        match self {
            RankState::C2c {
                plan, bound, data, ..
            } => Some(execute(plan, bound, ctx, rank, comm, data, Direction::Inverse).trace),
            RankState::R2c {
                plan,
                bound,
                spectrum,
                back,
                ..
            } => {
                *back = plan.execute_inverse(bound, ctx, rank, comm, std::mem::take(spectrum));
                None
            }
        }
    }

    /// Valid between `forward` and `inverse`.
    fn spectrum(&self) -> &[C64] {
        match self {
            RankState::C2c { data, .. } => &data[0],
            RankState::R2c { spectrum, .. } => spectrum,
        }
    }

    /// Max-norm of (scaled round trip − original input) on this rank.
    fn roundtrip_err(&self) -> f64 {
        match self {
            RankState::C2c {
                plan,
                pristine,
                data,
                ..
            } => {
                let s = 1.0 / plan.total_elems() as f64;
                data[0]
                    .iter()
                    .zip(pristine)
                    .fold(0.0, |m, (g, w)| nan_max(m, (g.scale(s) - *w).abs()))
            }
            RankState::R2c {
                plan,
                pristine,
                back,
                ..
            } => {
                let s = 1.0 / plan.normalization();
                if back.len() != pristine.len() {
                    return f64::NAN;
                }
                back.iter()
                    .zip(pristine)
                    .fold(0.0, |m, (g, w)| nan_max(m, (g * s - w).abs()))
            }
        }
    }

    fn restore(&mut self) {
        // The r2c forward borrows its pristine input and never writes it.
        if let RankState::C2c { pristine, data, .. } = self {
            data[0].copy_from_slice(pristine);
        }
    }
}

/// Runs warm-up plus `segments` in one world and returns what every rank
/// saw. Rank 0 owns the wall clock: between ops it decides, before a
/// barrier all ranks share, at which op index the segment stops.
pub fn run_loop(
    w: &Workload,
    plans: &Plans,
    input: &Input,
    segments: &[Segment],
    epoch: Instant,
) -> LoopOutcome {
    let world = World::new(machine(), w.ranks, world_opts());
    let barrier = Barrier::new(w.ranks);
    let stop_at: Vec<AtomicU64> = segments.iter().map(|_| AtomicU64::new(u64::MAX)).collect();
    let dims = w.dims();

    let per_rank = world.run(|rank| {
        let is_root = rank.rank() == 0;
        let comm = Comm::world(rank);
        let (mut state, bind_ms) = RankState::new(plans, input, dims, rank, &comm);
        let mut ctx = ExecCtx::with_threads(1);

        let mut out = RankOutcome {
            errs: Vec::new(),
            first_spectrum: Vec::new(),
            sim_marks: [0; 3],
            sim_traces: Vec::new(),
            pool: PoolStats::default(),
            bind_ms,
        };
        let mut stats: Vec<SegmentStats> = Vec::new();
        let mut spans = SpanLog::new(epoch);
        let mut counters = None;

        let mut k = 0u64; // op index, counted from the first warm-up op
        for (si, seg) in segments.iter().enumerate() {
            let mut seg_stats = SegmentStats::default();
            let mut seg_start = Instant::now();
            let seg_first = k;
            loop {
                if is_root {
                    if k == seg_first {
                        fftobs::set_enabled(seg.traced);
                        if seg.traced {
                            fftobs::registry().reset();
                        }
                        seg_start = Instant::now();
                    }
                    if seg.seconds > 0.0 {
                        seg_stats.probe_us.push(freq_probe_us());
                    }
                    let min_done = k - seg_first >= seg.min_ops;
                    if min_done && seg_start.elapsed().as_secs_f64() >= seg.seconds {
                        // Set once, to this op index, before the barrier of
                        // this op: a rank still reading at an earlier index
                        // sees MAX or a larger index and carries on.
                        stop_at[si].store(k, Ordering::SeqCst);
                    }
                }
                barrier.wait();
                if k >= stop_at[si].load(Ordering::SeqCst) {
                    break;
                }

                let spanned = is_root && seg.traced;
                let op_span = spanned.then(|| spans.begin("op", None, k));
                let t0 = Instant::now();
                let fwd_span = spanned.then(|| spans.begin("execute_forward", op_span, k));
                let fwd_trace = state.forward(&mut ctx, rank, &comm);
                if let Some(id) = fwd_span {
                    spans.end(id);
                }
                let t1 = Instant::now();
                if k == 0 {
                    // Outside the per-op clock that matters: op 0 is warm-up.
                    out.first_spectrum = state.spectrum().to_vec();
                }
                let inv_span = spanned.then(|| spans.begin("execute_inverse", op_span, k));
                let inv_trace = state.inverse(&mut ctx, rank, &comm);
                let t2 = Instant::now();
                if let Some(id) = inv_span {
                    spans.end(id);
                }
                if let Some(id) = op_span {
                    spans.end(id);
                }

                if is_root && seg.seconds > 0.0 {
                    seg_stats.op_ms.push((t2 - t0).as_secs_f64() * 1e3);
                    seg_stats.fwd_ms.push((t1 - t0).as_secs_f64() * 1e3);
                    seg_stats.inv_ms.push((t2 - t1).as_secs_f64() * 1e3);
                }
                match k + 1 {
                    1 => out.sim_marks[0] = rank.now().as_ns(),
                    SIM_FROM => out.sim_marks[1] = rank.now().as_ns(),
                    SIM_TO => {
                        out.sim_marks[2] = rank.now().as_ns();
                        out.sim_traces = fwd_trace.into_iter().chain(inv_trace).collect();
                    }
                    _ => {}
                }
                out.errs.push(state.roundtrip_err());
                state.restore();
                if is_root && seg.seconds > 0.0 {
                    seg_stats.done_s.push(seg_start.elapsed().as_secs_f64());
                }
                k += 1;
            }
            if is_root && seg.traced {
                counters = Some(fftobs::registry().snapshot());
                fftobs::set_enabled(false);
            }
            stats.push(seg_stats);
        }
        out.pool = ctx.pool_stats();
        (out, stats, spans, counters)
    });

    let mut per_rank = per_rank.into_iter();
    let (root, segments, spans, counters) = per_rank.next().expect("a world has a rank 0");
    LoopOutcome {
        ranks: std::iter::once(root).chain(per_rank.map(|r| r.0)).collect(),
        segments,
        spans,
        counters: counters.unwrap_or_default(),
    }
}

/// Per-op verdicts: op `i` fails unless every rank's scaled round trip
/// passes. Returns `(attempted, failed)`.
pub fn count_failures(outcome: &LoopOutcome) -> (u64, u64) {
    let ops = outcome.ranks[0].errs.len();
    let failed = (0..ops)
        .filter(|&i| {
            outcome
                .ranks
                .iter()
                .any(|r| !within(r.errs.get(i).copied().unwrap_or(f64::NAN), ROUNDTRIP_TOL))
        })
        .count();
    (ops as u64, failed as u64)
}

/// Gathers the first forward output and compares it with the serial
/// oracle; returns the relative max-norm error.
pub fn oracle_error(w: &Workload, plans: &Plans, input: &Input, outcome: &LoopOutcome) -> f64 {
    let (want, domain) = oracle_spectrum(w, input);
    let mut got = vec![C64::ZERO; want.len()];
    let whole = Box3::whole(domain);
    for (r, rank) in outcome.ranks.iter().enumerate() {
        let out_box = match plans {
            Plans::C2c(p) => *p.dists[p.dists.len() - 1].rank_box(r),
            Plans::R2c(p) => p.spectrum_box(r),
            Plans::DryRun(_) => unreachable!("no numerics in the dry-run workload"),
        };
        if out_box.volume() != rank.first_spectrum.len() {
            return f64::NAN;
        }
        if !out_box.is_empty() {
            whole.deposit(&mut got, &out_box, &rank.first_spectrum);
        }
    }
    let scale = want.iter().fold(0.0, |m, v| nan_max(m, v.abs()));
    let diff = got
        .iter()
        .zip(&want)
        .fold(0.0, |m, (g, v)| nan_max(m, (*g - *v).abs()));
    diff / scale
}

/// What a cold start does after input generation: plan, world, bind, pools
/// and caches filled by one verified op. Returns the round-trip error.
pub fn first_op(w: &Workload, input: &Input) -> f64 {
    let plans = w.build_plans();
    let warmup_only = [Segment {
        seconds: 0.0,
        min_ops: 1,
        traced: false,
    }];
    let outcome = run_loop(w, &plans, input, &warmup_only, Instant::now());
    outcome.ranks.iter().fold(0.0, |m, r| {
        nan_max(m, r.errs.first().copied().unwrap_or(f64::NAN))
    })
}
