//! Analytic (dry-run) executor: walks a plan at any scale without data.
//!
//! Reproduces the exact timing of the functional executor — same kernel
//! model, same schedule walkers, same phase-id sequence — but holds only
//! per-rank clocks. Like the functional exchange, it prices each group of
//! each reshape call once, with the same `coll::exchange_times`, on the
//! non-zero byte rows lowered once per group. This is what every
//! large-scale figure harness runs on. Measured on a 2-core x86-64 host
//! (release build, best of 7), one 512³ transform on 192 simulated GPUs
//! costs 0.4–2.6 ms of host time across the four backends × {1, 4} chunks
//! once the runner has lowered that direction, and 0.6–3.2 ms for its
//! first transform, which lowers it.

use fftkern::Direction;
use mpisim::coll;
use mpisim::distro::MpiDistro;
use mpisim::pattern::{NetParams, PhaseEnv};
use simgrid::{MachineSpec, SimTime};

use crate::exec::{ExecCtx, ExecWork};
use crate::plan::FftPlan;
use crate::schedule::{directed, Op, RunEnv, Timeline};
use crate::trace::Trace;

/// The dry-run twin of `mpisim::WorldOpts`.
#[derive(Debug, Clone)]
pub struct DryRunOpts {
    /// GPU-aware MPI on/off.
    pub gpu_aware: bool,
    /// MPI distribution profile.
    pub distro: MpiDistro,
    /// Deterministic per-message jitter amplitude.
    pub noise_amplitude: f64,
    /// Jitter seed.
    pub seed: u64,
    /// Failure injection: per-rank GPU compute slowdown factors (>1 =
    /// slower), mirroring `WorldOpts::compute_slowdown`.
    pub compute_slowdown: Vec<(usize, f64)>,
    /// Accepted and ignored; spelled by the frozen `benchmark/`.
    #[doc(hidden)]
    pub sched_memo: bool,
}

impl Default for DryRunOpts {
    fn default() -> Self {
        DryRunOpts {
            gpu_aware: true,
            distro: MpiDistro::SpectrumMpi,
            noise_amplitude: 0.0,
            seed: 0xF0F0_1234,
            compute_slowdown: Vec::new(),
            sched_memo: true,
        }
    }
}

/// Timing report of one dry-run transform.
#[derive(Debug, Clone)]
pub struct DryRunReport {
    /// Latest entry time across ranks (the synchronized start).
    pub start: SimTime,
    /// Per-rank completion times.
    pub per_rank_total: Vec<SimTime>,
    /// Per-rank event logs.
    pub traces: Vec<Trace>,
}

impl DryRunReport {
    /// Latest completion across ranks.
    pub fn end(&self) -> SimTime {
        self.per_rank_total
            .iter()
            .copied()
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Wall-clock duration of the transform (synchronized-start convention).
    pub fn makespan(&self) -> SimTime {
        self.end() - self.start
    }

    /// Maximum per-rank communication total (sum of MPI call durations).
    pub fn comm_max(&self) -> SimTime {
        self.traces
            .iter()
            .map(|t| t.comm_total())
            .fold(SimTime::ZERO, SimTime::max)
    }
}

/// Every rank's timeline while one pipeline chunk runs.
struct Ranks<'a> {
    gpu_clock: &'a mut [SimTime],
    data_ready: &'a mut [SimTime],
    traces: &'a mut [Trace],
}

impl Ranks<'_> {
    #[expect(
        clippy::indexing_slicing,
        reason = "`r` is a rank of the plan, below the length of every per-rank slice"
    )]
    fn timeline(&mut self, r: usize) -> Timeline<'_> {
        Timeline {
            gpu_clock: &mut self.gpu_clock[r],
            data_ready: &mut self.data_ready[r],
            trace: &mut self.traces[r],
        }
    }
}

/// Stateful dry runner: clocks persist across transforms exactly like the
/// rank clocks of the functional world.
pub struct DryRunner<'a> {
    plan: &'a FftPlan,
    machine: &'a MachineSpec,
    opts: DryRunOpts,
    ctx: ExecCtx,
    net_clock: Vec<SimTime>,
    gpu_clock: Vec<SimTime>,
    /// Each direction's ops, lowered for every rank on its first run.
    fwd: Option<Vec<Op>>,
    rev: Option<Vec<Op>>,
}

impl<'a> DryRunner<'a> {
    /// Creates a runner with all clocks at zero.
    pub fn new(plan: &'a FftPlan, machine: &'a MachineSpec, opts: DryRunOpts) -> DryRunner<'a> {
        DryRunner {
            plan,
            machine,
            opts,
            ctx: ExecCtx::new(),
            net_clock: vec![SimTime::ZERO; plan.nranks],
            gpu_clock: vec![SimTime::ZERO; plan.nranks],
            fwd: None,
            rev: None,
        }
    }

    /// Current completion time of rank `r` (both resources drained).
    #[expect(
        clippy::indexing_slicing,
        reason = "`r` is a rank of the plan; both clocks hold one time per rank"
    )]
    pub fn rank_time(&self, r: usize) -> SimTime {
        self.net_clock[r].max(self.gpu_clock[r])
    }

    /// The runner's host work so far: a dry run moves no data, so only
    /// `lowered` counts — once per member of each group of each distinct
    /// (direction, reshape, items), on each direction's first run.
    pub fn work(&self) -> ExecWork {
        self.ctx.work()
    }

    /// Executes one transform analytically, advancing the persistent clocks.
    ///
    /// The analytic interpreter of the reshape schedule: every rank's
    /// `ReshapeSchedule` is stamped exactly as the functional executor
    /// stamps it, and each group's exchange is priced by the same
    /// `coll::exchange_times` the functional exchange calls, fed the
    /// entries and byte rows the members would have gathered.
    #[expect(
        clippy::indexing_slicing,
        reason = "ranks stay below `plan.nranks`, `op.reshape` indexes this direction's specs, `group_of` holds group indices and each member pushes `k` entries"
    )]
    pub fn run(&mut self, dir: Direction) -> DryRunReport {
        let plan = self.plan;
        let env = RunEnv {
            plan,
            machine: self.machine,
            km: self.machine.kernel_model(),
            gpu_aware: self.opts.gpu_aware,
            distro: self.opts.distro,
            slowdowns: &self.opts.compute_slowdown,
        };
        let np = NetParams {
            spec: self.machine,
            seed: self.opts.seed,
            noise_amp: self.opts.noise_amplitude,
        };
        let n = plan.nranks;
        let mut traces = vec![Trace::new(); n];

        let t0: Vec<SimTime> = (0..n).map(|r| self.rank_time(r)).collect();
        let start = t0.iter().copied().fold(SimTime::ZERO, SimTime::max);
        // Align both resource clocks to each rank's own entry.
        self.gpu_clock.copy_from_slice(&t0);
        self.net_clock.copy_from_slice(&t0);

        let ops = match dir {
            Direction::Forward => &mut self.fwd,
            Direction::Inverse => &mut self.rev,
        };
        let work = self.ctx.work_mut();
        let ops = ops.get_or_insert_with(|| {
            let (ops, lowered) = env.program(dir, |_| true);
            work.lowered += lowered;
            ops
        });
        let (_, specs) = directed(plan, dir);
        let chunks = plan.chunks();
        let mut data_ready: Vec<Vec<SimTime>> = (0..chunks).map(|_| t0.clone()).collect();
        // The current group's flat entry times, reused across groups.
        let mut entries: Vec<SimTime> = Vec::new();

        for (c, data_ready) in data_ready.iter_mut().enumerate() {
            let items = plan.chunk_items(c);
            let net_clock = &mut self.net_clock;
            let mut ranks = Ranks {
                gpu_clock: &mut self.gpu_clock,
                data_ready,
                traces: &mut traces,
            };
            for op in ops.iter() {
                let op = match *op {
                    Op::Fft { dist, axis } => {
                        let first = self.ctx.first_strided(dist, axis, dir);
                        for r in 0..n {
                            env.local_fft(&mut ranks.timeline(r), r, dist, axis, items, first);
                        }
                        continue;
                    }
                    Op::Reshape(ref op) => op,
                };
                // One phase id and one strided-warmup consumption per step
                // position, exactly where each functional rank takes them.
                let phase_id = self.ctx.next_phase_id();
                let first = (op.next_axis)
                    .is_some_and(|axis| self.ctx.first_strided(op.to_dist, axis, dir));
                let spec = &specs[op.reshape];
                let groups = op.groups(items);

                // Ranks outside every group have no flows: nothing to
                // stamp. Each group runs pack chains → one priced exchange
                // → unpack chains.
                for (group, lowered) in spec.groups.iter().zip(groups) {
                    let k = lowered.k;
                    entries.clear();
                    for (i, (&r, sched)) in group.iter().zip(&lowered.scheds).enumerate() {
                        sched.before_exchange(&env, &mut ranks.timeline(r), &mut entries);
                        // A chunk posts once packed *and* once the rank's
                        // previous call has left the network.
                        for t in &mut entries[i * k..] {
                            *t = net_clock[r].max(*t);
                        }
                    }

                    // Priced on the byte rows the members would have gathered.
                    let phase = PhaseEnv {
                        phase_id,
                        ..lowered.env
                    };
                    let rows = |i: usize| lowered.rows.row(i);
                    let times =
                        coll::exchange_times(&np, &phase, &lowered.kind, group, &entries, &rows);

                    for (i, (&r, sched)) in group.iter().zip(&lowered.scheds).enumerate() {
                        sched.after_exchange(
                            &env,
                            &mut ranks.timeline(r),
                            &entries[i * k..(i + 1) * k],
                            times.ready(i),
                            times.exit(i),
                            first,
                        );
                        net_clock[r] = times.exit(i);
                    }
                }

                // The owned step: chunked groups ran it per chunk above;
                // every other rank books the whole-box pass.
                if let Some(axis) = op.next_axis {
                    let whole = |r: &usize| spec.group_of[*r].is_none_or(|g| groups[g].k == 1);
                    for r in (0..n).filter(whole) {
                        env.local_fft(&mut ranks.timeline(r), r, op.to_dist, axis, items, first);
                    }
                }
            }
        }

        // Drain: completion = max of both resources and all chunks.
        let mut totals = Vec::with_capacity(n);
        for r in 0..n {
            let mut t = self.gpu_clock[r].max(self.net_clock[r]);
            for ready in data_ready.iter() {
                t = t.max(ready[r]);
            }
            self.gpu_clock[r] = t;
            self.net_clock[r] = t;
            totals.push(t);
        }

        DryRunReport {
            start,
            per_rank_total: totals,
            traces,
        }
    }

    /// Runs the paper's measurement protocol: `warmups` transforms, then
    /// `pairs` forward+backward pairs; returns the average time per
    /// transform over the timed pairs (§IV: "the average runtime of 8 FFTs
    /// (4 forward and 4 backward), preceded by 2 FFTs to warm up").
    pub fn timed_average(&mut self, warmups: usize, pairs: usize) -> SimTime {
        for i in 0..warmups {
            let dir = if i % 2 == 0 {
                Direction::Forward
            } else {
                Direction::Inverse
            };
            let _ = self.run(dir);
        }
        let t_begin = (0..self.plan.nranks)
            .map(|r| self.rank_time(r))
            .fold(SimTime::ZERO, SimTime::max);
        for _ in 0..pairs {
            let _ = self.run(Direction::Forward);
            let _ = self.run(Direction::Inverse);
        }
        let t_end = (0..self.plan.nranks)
            .map(|r| self.rank_time(r))
            .fold(SimTime::ZERO, SimTime::max);
        SimTime::from_ns((t_end - t_begin).as_ns() / (2 * pairs as u64))
    }
}
