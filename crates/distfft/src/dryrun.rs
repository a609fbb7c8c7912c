//! Analytic (dry-run) executor: walks a plan at any scale without data.
//!
//! Reproduces the exact timing of the functional executor — same kernel
//! model, same schedule walkers, same phase-id sequence — but holds only
//! per-rank clocks. Like the functional exchange, it prices each group of
//! each reshape call once, with the same `coll::exchange_times`. This is
//! what every large-scale figure harness runs on. Measured on a 2-core
//! x86-64 host (release build), one 512³ transform on 192 simulated GPUs
//! costs 0.4–6.4 ms of host time across the four backends × {1, 4} chunks
//! once the runner has lowered its reshapes, and 1.6–18 ms for the first
//! transform, which lowers them.

use std::collections::BTreeMap;

use fftkern::Direction;
use mpisim::coll;
use mpisim::distro::MpiDistro;
use mpisim::pattern::NetParams;
use simgrid::{MachineSpec, SimTime};

use crate::boxes::Box3;
use crate::exec::ExecCtx;
use crate::plan::{FftPlan, Step};
use crate::schedule::{directed, ReshapeCall, ReshapeSchedule, RunEnv, Timeline};
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
    fn timeline(&mut self, r: usize) -> Timeline<'_> {
        Timeline {
            gpu_clock: &mut self.gpu_clock[r],
            data_ready: &mut self.data_ready[r],
            trace: &mut self.traces[r],
        }
    }
}

/// One communication group of one reshape call, lowered: its effective
/// chunk count and every member's schedule, in group order.
struct LoweredGroup {
    k: usize,
    scheds: Vec<ReshapeSchedule>,
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
    /// Every reshape call's lowered groups, keyed by (direction, reshape,
    /// items), filled on first use. Chunk counts and schedules are pure
    /// functions of the plan and that key; the only per-call field,
    /// `env.phase_id`, is re-stamped on every use.
    lowered: BTreeMap<(Direction, usize, usize), Vec<LoweredGroup>>,
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
            lowered: BTreeMap::new(),
        }
    }

    /// Current completion time of rank `r` (both resources drained).
    pub fn rank_time(&self, r: usize) -> SimTime {
        self.net_clock[r].max(self.gpu_clock[r])
    }

    /// Executes one transform analytically, advancing the persistent clocks.
    ///
    /// The analytic interpreter of the reshape schedule: every rank's
    /// [`ReshapeSchedule`] is stamped exactly as the functional executor
    /// stamps it, and each group's exchange is priced by the same
    /// `coll::exchange_times` the functional exchange calls, fed the
    /// entries and byte rows the members would have gathered.
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

        let (steps, specs) = directed(plan, dir);
        let chunks = plan.chunks();
        let mut data_ready: Vec<Vec<SimTime>> = (0..chunks).map(|_| t0.clone()).collect();
        // Scratch reused across groups and reshapes: the current group's
        // flat entry times, and which ranks the current reshape runs
        // chunked (all false between steps).
        let mut entries: Vec<SimTime> = Vec::new();
        let mut chunked = vec![false; n];

        for (c, data_ready) in data_ready.iter_mut().enumerate() {
            let (ilo, ihi) = Box3::chunk(plan.opts.batch, chunks, c);
            let items = ihi - ilo;
            let net_clock = &mut self.net_clock;
            let mut ranks = Ranks {
                gpu_clock: &mut self.gpu_clock,
                data_ready,
                traces: &mut traces,
            };
            // Whole-box local FFT pass on every rank not in `skip`.
            let local_fft = |ranks: &mut Ranks, dist, axis, first, skip: &[bool]| {
                for r in (0..n).filter(|&r| !skip[r]) {
                    env.local_fft(&mut ranks.timeline(r), r, dist, axis, items, first);
                }
            };
            let mut si = 0;
            while si < steps.len() {
                match *steps[si] {
                    Step::LocalFft { dist, axis } => {
                        let first = self.ctx.first_strided(dist, axis, dir);
                        local_fft(&mut ranks, dist, axis, first, &chunked);
                        si += 1;
                    }
                    Step::Reshape(ri) => {
                        let next = steps.get(si + 1).copied();
                        let phase_id = self.ctx.next_phase_id();
                        let call = ReshapeCall::at(specs, dir, ri, next, items, phase_id);
                        // One strided-warmup consumption per step position,
                        // exactly where each functional rank would consume it.
                        let next_first = call
                            .next_axis
                            .map(|axis| self.ctx.first_strided(call.to_dist, axis, dir));

                        let lowered = self.lowered.entry((dir, ri, items)).or_insert_with(|| {
                            let lower = |group: &Vec<usize>| {
                                let k = env.group_chunks(&call, group);
                                let scheds = (0..group.len())
                                    .map(|i| env.lower(&call, group, i, k))
                                    .collect();
                                LoweredGroup { k, scheds }
                            };
                            call.spec.groups.iter().map(lower).collect()
                        });

                        // Ranks outside every group have no flows: nothing
                        // to stamp. Each group runs pack chains → one priced
                        // exchange → unpack chains.
                        for (group, LoweredGroup { k, scheds }) in
                            call.spec.groups.iter().zip(lowered.iter_mut())
                        {
                            let k = *k;
                            entries.clear();
                            for (i, (&r, sched)) in group.iter().zip(scheds.iter_mut()).enumerate()
                            {
                                sched.env.phase_id = phase_id;
                                chunked[r] = k >= 2;
                                sched.before_exchange(&env, &mut ranks.timeline(r), &mut entries);
                                // A chunk posts once packed *and* once the
                                // rank's previous call has left the network.
                                for t in &mut entries[i * k..] {
                                    *t = net_clock[r].max(*t);
                                }
                            }

                            // The byte rows the members would have gathered.
                            let wire_bytes = env.wire_bytes(&call, group);
                            let rows: Vec<Vec<usize>> =
                                group.iter().map(|&r| wire_bytes(r, group)).collect();
                            let bytes = |i: usize, j: usize| rows[i][j];
                            let sched_env = scheds[0].env;
                            let kind = scheds[0].kind;
                            let times = coll::exchange_times(
                                &np, &sched_env, &kind, group, &entries, &bytes,
                            );

                            for (i, (&r, sched)) in group.iter().zip(scheds.iter()).enumerate() {
                                sched.after_exchange(
                                    &env,
                                    &mut ranks.timeline(r),
                                    &entries[i * k..(i + 1) * k],
                                    times.ready(i),
                                    times.exit(i),
                                    next_first.unwrap_or(false),
                                );
                                net_clock[r] = times.exit(i);
                            }
                        }

                        // The next-axis transform is consumed for every
                        // rank: chunked groups ran it per chunk above, the
                        // rest book the same event the standalone LocalFft
                        // step would.
                        if let (Some(axis), Some(first)) = (call.next_axis, next_first) {
                            local_fft(&mut ranks, call.to_dist, axis, first, &chunked);
                        }
                        chunked.fill(false);
                        si += if call.next_axis.is_some() { 2 } else { 1 };
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
