//! The per-layer probes of the traced pass. Every layer is measured from
//! outside, by timing calls into its public functions with the workload's
//! real shapes, regions, groups and byte matrices; each probe runs under a
//! child span of `layers`. Isolation figures (`*_cpu_ms_per_op`) are
//! single-threaded and summed over ranks.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

use distfft::dryrun::DryRunner;
use distfft::exec::effective_group_chunks;
use distfft::plan::{CommBackend, FftPlan, Step};
use distfft::reshape::{apply_self_block, ReshapeSpec, ELEM_BYTES};
use distfft::{Box3, Trace, TraceEvent};
use fftkern::plan::Layout;
use fftkern::{plan_cache, Direction, C64};
use mpisim::coll;
use mpisim::comm::{Comm, World};
use mpisim::pattern::{NetParams, P2pFlavor, PhaseEnv};
use simgrid::SimTime;

use crate::functional::{LoopOutcome, SIM_FROM, SIM_TO};
use crate::metrics::{Values, SIM_PHASES};
use crate::spans::SpanLog;
use crate::util::{
    llc_bytes, loadavg_1m, median, mem_available_bytes, nproc, process_cpu_ms, SplitMix64,
};
use crate::workloads::{dryrun_opts, machine, world_opts, Kind, Plans, Workload, DRYRUN_CONFIGS};

fn random_complex(len: usize, rng: &mut SplitMix64) -> Vec<C64> {
    (0..len)
        .map(|_| C64::new(rng.next_unit(), rng.next_unit()))
        .collect()
}

/// Calls `f` until both `min_reps` and `budget_s` are met and returns the
/// median seconds of one call.
fn median_secs(min_reps: usize, budget_s: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

// ---------------------------------------------------------------------------
// host
// ---------------------------------------------------------------------------

/// Bytes copied per second by `copy_from_slice` between two buffers of
/// `elems` complex values (memory traffic is twice that: read + write).
fn memcpy_gbps(elems: usize, copies_per_sample: usize, min_reps: usize, budget_s: f64) -> f64 {
    let src = vec![C64::new(1.0, -2.0); elems];
    let mut dst = vec![C64::ZERO; elems];
    dst.copy_from_slice(&src); // fault the pages in
    let t = median_secs(min_reps, budget_s, || {
        for _ in 0..copies_per_sample {
            black_box(&mut dst).copy_from_slice(black_box(&src));
        }
        black_box(&dst);
    });
    (elems * ELEM_BYTES * copies_per_sample) as f64 / t / 1e9
}

pub fn host(vals: &mut Values, quick: bool) {
    let llc = llc_bytes();
    // Each buffer at least four times the last-level cache, as long as the
    // pair fits in half of what the host can still give.
    let want = 4 * llc;
    let cap = (mem_available_bytes() / 4).max(64 << 20);
    let large = if quick { want.min(64 << 20) } else { want }.min(cap);
    vals.set("host.llc_mib", llc as f64 / (1 << 20) as f64);
    vals.set("host.memcpy_large_buf_mib", large as f64 / (1 << 20) as f64);
    vals.set(
        "host.memcpy_large_gbps",
        memcpy_gbps(large / ELEM_BYTES, 1, 3, 0.5),
    );
    // Two 256 KiB buffers: resident in the 2 MiB L2 with room to spare.
    vals.set(
        "host.memcpy_l2_gbps",
        memcpy_gbps((256 << 10) / ELEM_BYTES, 256, 5, 0.1),
    );
    vals.set("host.nproc", nproc() as f64);
    vals.set("bench.loadavg_1m", loadavg_1m());
}

// ---------------------------------------------------------------------------
// fftkern
// ---------------------------------------------------------------------------

/// The batched 1-D transform `run_local_fft` derives from a rank's box for
/// one axis: axis 2 is `s0·s1` contiguous rows, axis 1 is `s2` strided lines
/// in each of `s0` planes, axis 0 is `s1·s2` strided lines.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct LineShape {
    n: usize,
    batch: usize,
    layout: Layout,
    planes: usize,
}

impl LineShape {
    fn of(b: &Box3, axis: usize) -> Option<LineShape> {
        if b.is_empty() {
            return None;
        }
        let s = b.shape();
        let (n, batch, layout, planes) = match axis {
            2 => (s[2], s[0] * s[1], Layout::contiguous(s[2]), 1),
            1 => (s[1], s[2], Layout::strided(s[2]), s[0]),
            _ => (s[0], s[1] * s[2], Layout::strided(s[1] * s[2]), 1),
        };
        Some(LineShape {
            n,
            batch,
            layout,
            planes,
        })
    }

    fn flops(&self) -> f64 {
        let n = self.n as f64;
        5.0 * n * n.log2() * (self.batch * self.planes) as f64
    }

    /// Median seconds of one pass (all planes, one direction) through
    /// `Plan1d::execute_inplace_scratch` on the cached plan. Forward and
    /// inverse passes alternate and the data is rescaled outside the timed
    /// region, so values stay bounded however long the loop runs.
    fn time_pass(&self, budget_s: f64) -> f64 {
        let plan = plan_cache().plan1d(self.n, self.batch, self.layout, self.layout);
        let plane = self.n * self.batch;
        let mut rng = SplitMix64::new(0x5EED ^ (self.n * 31 + self.batch) as u64);
        let mut data = random_complex(plane * self.planes, &mut rng);
        let mut scratch = vec![C64::ZERO; plan.scratch_elems()];
        let scale = 1.0 / self.n as f64;
        let mut dir = Direction::Forward;
        let start = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < 4 || start.elapsed().as_secs_f64() < budget_s {
            let t = Instant::now();
            for p in data.chunks_exact_mut(plane) {
                plan.execute_inplace_scratch(p, dir, &mut scratch);
            }
            samples.push(t.elapsed().as_secs_f64());
            black_box(&data);
            if dir == Direction::Inverse {
                data.iter_mut().for_each(|v| *v = v.scale(scale));
            }
            dir = dir.flip();
        }
        median(&samples)
    }
}

/// Every `(plan, LocalFft step)` of one op, with the box each rank holds.
fn local_fft_steps(plans: &Plans) -> Vec<(&FftPlan, usize, usize)> {
    plans
        .transforms()
        .into_iter()
        .flat_map(|(plan, _)| {
            plan.steps.iter().filter_map(move |s| match s {
                Step::LocalFft { dist, axis } => Some((plan, *dist, *axis)),
                Step::Reshape(_) => None,
            })
        })
        .collect()
}

/// First-use cost of the 1-D plans rank 0 needs: `plan_cache().plan1d` on a
/// cold cache (twiddle tables, Bluestein kernels). Must run before anything
/// else touches the cache.
pub fn plan_cold_us(plans: &Plans) -> f64 {
    let mut seen = Vec::new();
    let t = Instant::now();
    for (plan, dist, axis) in local_fft_steps(plans) {
        if let Some(s) = LineShape::of(plan.dists[dist].rank_box(0), axis) {
            if !seen.contains(&s) {
                black_box(plan_cache().plan1d(s.n, s.batch, s.layout, s.layout));
                seen.push(s);
            }
        }
    }
    t.elapsed().as_secs_f64() * 1e6
}

pub fn kernels(w: &Workload, plans: &Plans, vals: &mut Values, budget_s: f64) {
    let mut timed: BTreeMap<LineShape, f64> = BTreeMap::new();
    let mut cpu_s = 0.0;
    let mut axis_done = [false; 3];
    for (plan, dist, axis) in local_fft_steps(plans) {
        for r in 0..plan.nranks {
            let Some(shape) = LineShape::of(plan.dists[dist].rank_box(r), axis) else {
                continue;
            };
            let t = *timed
                .entry(shape)
                .or_insert_with(|| shape.time_pass(budget_s));
            cpu_s += t;
            if r == 0 && !axis_done[axis] {
                axis_done[axis] = true;
                let name = [
                    "fftkern.axis0_gflops",
                    "fftkern.axis1_gflops",
                    "fftkern.axis2_gflops",
                ];
                vals.set(name[axis], shape.flops() / t / 1e9);
            }
        }
    }

    if let Plans::R2c(r2c) = plans {
        // Untangle (m packed bins -> h half bins) and retangle every axis-2
        // line of the z-pencil layout, as the r2c pipeline does.
        let (n2, m, h) = (r2c.n[2], r2c.n[2] / 2, r2c.h);
        let rows_of = |r: usize| r2c.plan_a.dists[1].rank_box(r).volume() / m;
        let rows0 = rows_of(0).max(1);
        let mut rng = SplitMix64::new(0x2C);
        let packed = random_complex(rows0 * m, &mut rng);
        let mut half: Vec<C64> = Vec::with_capacity(rows0 * h);
        let mut back: Vec<C64> = Vec::with_capacity(rows0 * m);
        let t_un = median_secs(4, budget_s, || {
            half.clear();
            for row in packed.chunks_exact(m) {
                fftkern::real::untangle_half_into(row, n2, &mut half);
            }
            black_box(&half);
        });
        let t_re = median_secs(4, budget_s, || {
            back.clear();
            for row in half.chunks_exact(h) {
                fftkern::real::retangle_half_into(row, n2, &mut back);
            }
            black_box(&back);
        });
        let bytes = (rows0 * (m + h) * ELEM_BYTES) as f64;
        vals.set("fftkern.r2c_untangle_gbps", bytes / t_un / 1e9);
        let all_rows: usize = (0..r2c.plan_a.nranks).map(rows_of).sum();
        cpu_s += (t_un + t_re) * all_rows as f64 / rows0 as f64;
    }
    vals.set("fftkern.cpu_ms_per_op", cpu_s * 1e3);

    if w.name == "serial-64" {
        // Absolute figures for the engine paths `BENCH_engine.json` only
        // reports as warm/cold ratios.
        let probe = |n: usize, batch: usize, layout: Layout| {
            let s = LineShape {
                n,
                batch,
                layout,
                planes: 1,
            };
            s.flops() / s.time_pass(budget_s) / 1e9
        };
        vals.set(
            "fftkern.probe_pow2_512x16_gflops",
            probe(512, 16, Layout::contiguous(512)),
        );
        vals.set(
            "fftkern.probe_strided_512x64_gflops",
            probe(512, 64, Layout::strided(64)),
        );
        vals.set(
            "fftkern.probe_mixed_480x16_gflops",
            probe(480, 16, Layout::contiguous(480)),
        );
        vals.set(
            "fftkern.probe_bluestein_499_gflops",
            probe(499, 1, Layout::contiguous(499)),
        );
    }
}

// ---------------------------------------------------------------------------
// distfft: pack / unpack / self-copy
// ---------------------------------------------------------------------------

/// The reshapes one op performs, in execution order, each with the
/// distribution it leaves and the one it enters.
fn op_reshapes(plans: &Plans) -> Vec<(&FftPlan, &ReshapeSpec, usize, usize)> {
    let mut out = Vec::new();
    for (plan, dir) in plans.transforms() {
        match dir {
            Direction::Forward => {
                for (ri, spec) in plan.reshapes.iter().enumerate() {
                    out.push((plan, spec, ri, ri + 1));
                }
            }
            Direction::Inverse => {
                for (ri, spec) in plan.reshapes_rev.iter().enumerate().rev() {
                    out.push((plan, spec, ri + 1, ri));
                }
            }
        }
    }
    out
}

#[derive(Default)]
struct Moved {
    bytes: usize,
    secs: f64,
}

impl Moved {
    fn gbps(&self) -> f64 {
        if self.secs > 0.0 {
            self.bytes as f64 / self.secs / 1e9
        } else {
            0.0
        }
    }
}

/// Times `Box3::extract_into`, `Box3::deposit` and
/// `reshape::apply_self_block` over every rank's real regions of every
/// reshape of the op, and counts the op's off-rank messages and bytes
/// (computed from the plan, not measured).
pub fn reshapes(plans: &Plans, vals: &mut Values) {
    let (mut pack, mut unpack, mut selfcopy) =
        (Moved::default(), Moved::default(), Moved::default());
    let (mut msgs, mut wire_bytes) = (0u64, 0u64);
    let mut rng = SplitMix64::new(0xBACC);
    for (plan, spec, from_dist, to_dist) in op_reshapes(plans) {
        let backend = plan.opts.backend;
        for r in 0..plan.nranks {
            for (dst, region) in &spec.sends[r] {
                if *dst != r && region.volume() > 0 {
                    msgs += 1;
                    wire_bytes += (region.volume() * ELEM_BYTES) as u64;
                }
            }
            let Some(gi) = spec.group_of[r] else { continue };
            if !backend.needs_pack() {
                continue;
            }
            let members = &spec.groups[gi];
            let from_box = plan.dists[from_dist].rank_box(r);
            let to_box = plan.dists[to_dist].rank_box(r);
            let on_wire = |j: usize| !(backend.is_p2p() && members[j] == r);
            let sends: Vec<&Box3> = spec
                .send_region_index(r, members)
                .into_iter()
                .enumerate()
                .filter_map(|(j, reg)| reg.filter(|_| on_wire(j)))
                .collect();
            let recvs: Vec<&Box3> = spec
                .recv_region_index(r, members)
                .into_iter()
                .enumerate()
                .filter_map(|(j, reg)| reg.filter(|_| on_wire(j)))
                .collect();

            let src = random_complex(from_box.volume(), &mut rng);
            let mut bufs: Vec<Vec<C64>> = sends
                .iter()
                .map(|reg| Vec::with_capacity(reg.volume()))
                .collect();
            pack.bytes += sends.iter().map(|b| b.volume() * ELEM_BYTES).sum::<usize>();
            pack.secs += median_secs(3, 0.0, || {
                for (reg, buf) in sends.iter().zip(bufs.iter_mut()) {
                    buf.clear();
                    from_box.extract_into(&src, reg, buf);
                }
                black_box(&bufs);
            });

            let blocks: Vec<Vec<C64>> = recvs
                .iter()
                .map(|reg| random_complex(reg.volume(), &mut rng))
                .collect();
            let mut dst = vec![C64::ZERO; to_box.volume()];
            unpack.bytes += recvs.iter().map(|b| b.volume() * ELEM_BYTES).sum::<usize>();
            unpack.secs += median_secs(3, 0.0, || {
                for (reg, block) in recvs.iter().zip(&blocks) {
                    to_box.deposit(&mut dst, reg, block);
                }
                black_box(&dst);
            });

            let overlap = from_box.intersect(to_box);
            if backend.is_p2p() && !overlap.is_empty() {
                selfcopy.bytes += overlap.volume() * ELEM_BYTES;
                selfcopy.secs += median_secs(3, 0.0, || {
                    apply_self_block(from_box, &src, to_box, &mut dst);
                    black_box(&dst);
                });
            }
        }
    }
    vals.set("distfft.pack_gbps", pack.gbps());
    vals.set("distfft.unpack_gbps", unpack.gbps());
    vals.set("distfft.selfcopy_gbps", selfcopy.gbps());
    vals.set("distfft.pack_cpu_ms_per_op", pack.secs * 1e3);
    vals.set("distfft.unpack_cpu_ms_per_op", unpack.secs * 1e3);
    vals.set("distfft.selfcopy_cpu_ms_per_op", selfcopy.secs * 1e3);
    vals.set("mpisim.msgs_per_op", msgs as f64);
    vals.set("mpisim.bytes_per_op", wire_bytes as f64);
}

// ---------------------------------------------------------------------------
// mpisim: exchanges, spawn, split, fan-out, walkers
// ---------------------------------------------------------------------------

struct ExchangeCost {
    us_per_call: f64,
    ms_per_op: f64,
    cpu_ms_per_op: f64,
    split_us: f64,
}

/// Replays the op's exchanges alone: the backend's public collective inside
/// `World::run`, on sub-communicators split the way `distfft::exec::bind`
/// splits them, with the plan's byte matrix (`empty = false`) or one
/// element per flow (`empty = true`: mailbox, control round and pricing
/// only). Payload buffers are recycled between calls, outside the timers.
fn exchange_replay(w: &Workload, plans: &Plans, reps: usize, empty: bool) -> ExchangeCost {
    let calls = op_reshapes(plans);
    let world = World::new(machine(), w.ranks, world_opts());
    let spec_machine = machine();
    let fence = Barrier::new(w.ranks);
    let per_rank = world.run(|rank| {
        let me = rank.rank();
        let comm = Comm::world(rank);
        let mut split_s = Vec::new();
        let subs: Vec<Option<Comm>> = calls
            .iter()
            .map(|(_, spec, _, _)| {
                let color = spec.group_of[me].map(|g| g as u64).unwrap_or(u64::MAX);
                let t = Instant::now();
                let sub = comm.split(rank, color, me as u64);
                split_s.push(t.elapsed().as_secs_f64());
                spec.group_of[me].map(|_| sub)
            })
            .collect();
        // Elements this rank sends to each member of its group, per call.
        let lens: Vec<Vec<usize>> = calls
            .iter()
            .zip(&subs)
            .map(|((plan, spec, _, _), sub)| {
                let Some(sub) = sub else { return Vec::new() };
                spec.send_region_index(me, sub.members())
                    .into_iter()
                    .enumerate()
                    .map(|(j, reg)| {
                        let p2p_self = plan.opts.backend.is_p2p() && sub.member(j) == me;
                        match reg {
                            Some(reg) if !p2p_self => {
                                if empty {
                                    1
                                } else {
                                    reg.volume()
                                }
                            }
                            _ => 0,
                        }
                    })
                    .collect()
            })
            .collect();
        let mut sends: Vec<Vec<Vec<C64>>> = lens
            .iter()
            .map(|row| row.iter().map(|&len| vec![C64::ONE; len]).collect())
            .collect();
        let mut call_s: Vec<Vec<f64>> = vec![Vec::new(); calls.len()];

        fence.wait();
        let cpu0 = process_cpu_ms();
        let mut phase_id = 0u64;
        for _ in 0..reps {
            for (c, (plan, spec, _, _)) in calls.iter().enumerate() {
                phase_id += 1;
                let Some(sub) = &subs[c] else { continue };
                let env = PhaseEnv {
                    gpu_aware: rank.world().opts().gpu_aware,
                    flows_per_nic: spec_machine.gpus_per_node.min(plan.nranks),
                    nodes: spec_machine.nodes_for(plan.nranks),
                    p2p_peers: spec.peer_count(me).max(1),
                    phase_id,
                };
                let k = effective_group_chunks(plan.opts.reshape_chunks, sub.size());
                let parts = vec![rank.now(); k];
                let out = std::mem::take(&mut sends[c]);
                let t = Instant::now();
                let recvd = match (plan.opts.backend, k >= 2) {
                    (CommBackend::AllToAllV, false) => coll::alltoallv(rank, sub, env, out),
                    (CommBackend::AllToAllV, true) => {
                        coll::alltoallv_partitioned(rank, sub, env, out, &parts).0
                    }
                    (CommBackend::P2p, false) => {
                        coll::p2p_exchange(rank, sub, env, P2pFlavor::NonBlocking, out)
                    }
                    (CommBackend::P2p, true) => {
                        coll::p2p_exchange_partitioned(
                            rank,
                            sub,
                            env,
                            P2pFlavor::NonBlocking,
                            out,
                            &parts,
                        )
                        .0
                    }
                    (other, _) => unreachable!("no functional workload uses {other:?}"),
                };
                call_s[c].push(t.elapsed().as_secs_f64());
                sends[c] = black_box(recvd)
                    .into_iter()
                    .zip(&lens[c])
                    .map(|(mut buf, &len)| {
                        buf.resize(len, C64::ONE);
                        buf
                    })
                    .collect();
            }
        }
        fence.wait();
        let cpu_ms = process_cpu_ms() - cpu0;
        (call_s, split_s, cpu_ms)
    });

    let (call_s, split_s, cpu_ms) = &per_rank[0];
    let all: Vec<f64> = call_s.iter().flatten().copied().collect();
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    ExchangeCost {
        us_per_call: mean(&all) * 1e6,
        ms_per_op: call_s
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(s))
            .fold(0.0, |a, b| a + b)
            * 1e3,
        cpu_ms_per_op: cpu_ms / reps as f64,
        split_us: if split_s.is_empty() {
            0.0
        } else {
            median(split_s) * 1e6
        },
    }
}

pub fn exchanges(w: &Workload, plans: &Plans, budget_s: f64, vals: &mut Values) {
    // A short replay sizes the real one: a fixed rep count every rank
    // agrees on, long enough that the replay's CPU time clears the 10 ms
    // tick of /proc/self/stat.
    let trial = exchange_replay(w, plans, 3, false);
    let reps = ((budget_s * 1e3 / trial.ms_per_op.max(0.01)) as usize).clamp(3, 5000);
    let full = exchange_replay(w, plans, reps, false);
    let empty = exchange_replay(w, plans, reps, true);
    vals.set("mpisim.exchange_us_per_call", full.us_per_call);
    vals.set("mpisim.exchange_empty_us_per_call", empty.us_per_call);
    vals.set("mpisim.exchange_ms_per_op", full.ms_per_op);
    vals.set("mpisim.exchange_cpu_ms_per_op", full.cpu_ms_per_op);
    vals.set("mpisim.split_us", full.split_us);
}

pub fn world_costs(w: &Workload, vals: &mut Values) {
    let spawn = median_secs(7, 0.0, || {
        let world = World::new(machine(), w.ranks, world_opts());
        black_box(world.run(|rank| rank.rank()));
    });
    vals.set("mpisim.world_spawn_us", spawn * 1e6);
    let fanout = median_secs(50, 0.0, || {
        let mut states = [0u64; 2];
        black_box(mpisim::par::par_parts(
            &mut states,
            vec![1u64, 2],
            |_, s, x| {
                *s += x;
            },
        ));
    });
    vals.set("mpisim.par_parts_fanout_us", fanout * 1e6);
}

/// Seconds of one direct, unmemoised `coll::*_exit_times` call for
/// `backend` with `k` chunks on rank 0's group of `spec`.
fn walker_secs(plan: &FftPlan, spec: &ReshapeSpec, backend: CommBackend, k: usize) -> f64 {
    let Some(gi) = spec.group_of[0] else {
        return 0.0;
    };
    let group = &spec.groups[gi];
    let machine = machine();
    let np = NetParams::exact(&machine);
    let env = PhaseEnv::machine_wide(&machine, plan.nranks, spec.peer_count(0), true, 1);
    let distro = world_opts().distro;
    let matrix = spec.group_byte_matrix(group);
    let pad = spec.padded_block_bytes(group);
    let k = effective_group_chunks(k, group.len());
    let entries = vec![SimTime::ZERO; group.len()];
    let parts = vec![vec![SimTime::ZERO; k]; group.len()];
    let flavor = P2pFlavor::NonBlocking;
    median_secs(5, 0.02, || match (backend, k >= 2) {
        (CommBackend::AllToAll, false) => {
            black_box(coll::alltoall_exit_times(
                &np, &env, distro, group, &entries, pad,
            ));
        }
        (CommBackend::AllToAll, true) => {
            black_box(coll::alltoall_partitioned_exit_times(
                &np, &env, distro, group, &parts, pad, k,
            ));
        }
        (CommBackend::AllToAllV, false) => {
            black_box(coll::alltoallv_exit_times(
                &np, &env, group, &entries, &matrix,
            ));
        }
        (CommBackend::AllToAllV, true) => {
            black_box(coll::alltoallv_partitioned_exit_times(
                &np, &env, group, &parts, &matrix, k,
            ));
        }
        (CommBackend::AllToAllW, false) => {
            black_box(coll::alltoallw_exit_times(
                &np, &env, distro, group, &entries, &matrix,
            ));
        }
        (CommBackend::AllToAllW, true) => {
            black_box(coll::alltoallw_partitioned_exit_times(
                &np, &env, distro, group, &parts, &matrix, k,
            ));
        }
        (CommBackend::P2p | CommBackend::P2pBlocking, false) => {
            black_box(coll::p2p_exchange_exit_times(
                &np, &env, group, &entries, &matrix, flavor,
            ));
        }
        (CommBackend::P2p | CommBackend::P2pBlocking, true) => {
            black_box(coll::p2p_exchange_partitioned_exit_times(
                &np, &env, group, &parts, &matrix, k, flavor,
            ));
        }
    })
}

/// Mean cost of pricing one schedule from scratch: the workload's own
/// walker on its first reshape, or all eight at the dry-run's p.
pub fn walkers(w: &Workload, plans: &Plans, vals: &mut Values) {
    let secs: Vec<f64> = match plans {
        Plans::DryRun(ps) => ps
            .iter()
            .zip(DRYRUN_CONFIGS)
            .filter_map(|(p, (b, k))| p.reshapes.first().map(|s| walker_secs(p, s, b, k)))
            .collect(),
        _ => plans
            .inner()
            .into_iter()
            .filter_map(|p| {
                p.reshapes
                    .first()
                    .map(|s| walker_secs(p, s, w.backend, w.reshape_chunks))
            })
            .collect(),
    };
    if !secs.is_empty() {
        vals.set(
            "mpisim.walker_us_per_schedule",
            secs.iter().sum::<f64>() / secs.len() as f64 * 1e6,
        );
    }
}

// ---------------------------------------------------------------------------
// the simulated clock: fftprof, simgrid, dry-run
// ---------------------------------------------------------------------------

/// Chunks the exchanges of a transform ran in: the executor records one
/// MPI-call event per chunk, so the largest per-reshape event count on
/// rank 0 is the chunk count in force.
fn chunks_in_trace(trace: &Trace) -> usize {
    let mut per_reshape: BTreeMap<usize, usize> = BTreeMap::new();
    for e in &trace.events {
        if let TraceEvent::MpiCall { reshape, .. } = e {
            *per_reshape.entry(*reshape).or_default() += 1;
        }
    }
    per_reshape.values().copied().max().unwrap_or(1)
}

/// Per-rank traces of each transform of one steady-state op: the
/// functional run's own for c2c, the dry run's for the r2c pipeline (whose
/// entry points return no trace) and for the analytic workload.
fn steady_state_traces(plans: &Plans, outcome: &LoopOutcome) -> Vec<Vec<Trace>> {
    if let Plans::C2c(_) = plans {
        return (0..2)
            .map(|t| {
                outcome
                    .ranks
                    .iter()
                    .map(|r| r.sim_traces.get(t).cloned().unwrap_or_default())
                    .collect()
            })
            .collect();
    }
    let machine = machine();
    let inner = plans.inner();
    let mut runners: Vec<DryRunner> = inner
        .iter()
        .map(|p| DryRunner::new(p, &machine, dryrun_opts()))
        .collect();
    let runner_of = |plan: &FftPlan| {
        inner
            .iter()
            .position(|p| std::ptr::eq(*p, plan))
            .unwrap_or(0)
    };
    let warmups = if matches!(plans, Plans::DryRun(_)) {
        1
    } else {
        SIM_TO - 1
    };
    for _ in 0..warmups {
        for (plan, dir) in plans.transforms() {
            runners[runner_of(plan)].run(dir);
        }
    }
    plans
        .transforms()
        .into_iter()
        .map(|(plan, dir)| runners[runner_of(plan)].run(dir).traces)
        .collect()
}

pub fn simulated(plans: &Plans, outcome: &LoopOutcome, vals: &mut Values) {
    let machine = machine();
    let per_transform = steady_state_traces(plans, outcome);
    let transforms = plans.transforms();
    let nranks = transforms[0].0.nranks as u64;

    let mut phase_ns = [0u64; 7]; // summed over ranks
    let (mut overlap_ns, mut window_ns) = (0u64, 0u64);
    let (mut ideal_ns, mut queue_ns) = (0u64, 0u64);
    let (mut spans, mut profile_s) = (0usize, 0.0);
    for (i, ((plan, _), traces)) in transforms.iter().zip(&per_transform).enumerate() {
        let t = Instant::now();
        let profile = fftprof::Profile::build("fftbench", plan, &machine, true, traces);
        profile_s += t.elapsed().as_secs_f64();
        let totals = profile.phases.totals();
        for (acc, ns) in phase_ns.iter_mut().zip(totals.ns) {
            *acc += ns;
        }
        overlap_ns += totals.overlap_ns;
        window_ns += profile.makespan_ns();
        for c in profile.contention.by_reshape.values() {
            ideal_ns += c.ideal_ns;
            queue_ns += c.queue_ns;
        }
        spans += traces
            .iter()
            .enumerate()
            .map(|(r, t)| t.to_spans(r as u32).len())
            .sum::<usize>();
        if i == 0 {
            vals.set(
                "fftprof.model_residual_pct",
                profile.residual.residual_frac() * 100.0,
            );
            vals.set(
                "distfft.effective_chunks",
                traces.first().map_or(1, chunks_in_trace) as f64,
            );
        }
    }
    if let Plans::R2c(r2c) = plans {
        // The fold/untangle/retangle/unfold kernels sit between the inner
        // plans; the library prices them at the busiest rank.
        let km = machine.kernel_model();
        let pointwise = r2c.pointwise_forward_ns(&km) + r2c.pointwise_inverse_ns(&km);
        phase_ns[0] += pointwise * nranks;
        window_ns += pointwise;
    }

    let per_rank_us = |ns: u64| ns as f64 / nranks as f64 / 1e3;
    vals.set("sim_op_us", window_ns as f64 / 1e3);
    for (name, ns) in SIM_PHASES.iter().zip(phase_ns) {
        vals.set(name, per_rank_us(ns));
    }
    vals.set("fftprof.sim_overlap_us", per_rank_us(overlap_ns));
    vals.set("simgrid.ideal_wire_us", per_rank_us(ideal_ns));
    vals.set("simgrid.queue_us", per_rank_us(queue_ns));
    vals.set("fftprof.profile_ms", profile_s * 1e3);
    vals.set("fftobs.spans_per_op", spans as f64);
    // Exact, in integer nanoseconds: every rank's seven phases tile the
    // window, so the rank sums tile `nranks` windows.
    vals.set(
        "bench.sim_tile_gap_ns",
        phase_ns.iter().sum::<u64>().abs_diff(window_ns * nranks) as f64,
    );
}

/// Functional vs dry-run simulated time for the same ops. For c2c the two
/// executors promise exact agreement: the per-rank clock advance over ops
/// `[SIM_FROM, SIM_TO)` is compared rank by rank. The r2c entry points
/// offer only the cold `dryrun_forward`/`dryrun_inverse`, documented as a
/// slight over-estimate (busiest-rank pointwise kernels); that cold pair is
/// compared with the functional first op.
pub fn exec_dryrun_mismatch(plans: &Plans, outcome: &LoopOutcome, vals: &mut Values) {
    let machine = machine();
    let mismatch = match plans {
        Plans::C2c(plan) => {
            let mut runner = DryRunner::new(plan, &machine, dryrun_opts());
            let mut from = vec![SimTime::ZERO; plan.nranks];
            for op in 0..SIM_TO {
                runner.run(Direction::Forward);
                runner.run(Direction::Inverse);
                if op + 1 == SIM_FROM {
                    from = (0..plan.nranks).map(|r| runner.rank_time(r)).collect();
                }
            }
            outcome
                .ranks
                .iter()
                .enumerate()
                .map(|(r, o)| {
                    let dry = (runner.rank_time(r) - from[r]).as_ns();
                    dry.abs_diff(o.sim_marks[2] - o.sim_marks[1])
                })
                .max()
                .unwrap_or(0)
        }
        Plans::R2c(r2c) => {
            let dry = r2c.dryrun_forward(&machine, dryrun_opts())
                + r2c.dryrun_inverse(&machine, dryrun_opts());
            let func = outcome
                .ranks
                .iter()
                .map(|o| o.sim_marks[0])
                .max()
                .unwrap_or(0);
            dry.as_ns().abs_diff(func)
        }
        Plans::DryRun(_) => 0,
    };
    vals.set("distfft.exec_dryrun_mismatch_ns", mismatch as f64);
}

/// Host cost of the analytic executor on the workload's largest plan: the
/// first `DryRunner::run` (schedules priced) and the second (memo hits).
pub fn dryrun_host_cost(w: &Workload, plans: &Plans, vals: &mut Values) {
    let machine = machine();
    let inner = plans.inner();
    let plan = match plans {
        Plans::DryRun(_) => inner
            .iter()
            .find(|p| p.opts.backend == w.backend && p.opts.reshape_chunks == w.reshape_chunks),
        _ => inner.last(),
    };
    let Some(plan) = plan else { return };
    let mut runner = DryRunner::new(plan, &machine, dryrun_opts());
    let t = Instant::now();
    black_box(runner.run(Direction::Forward));
    vals.set(
        "distfft.dryrun_cold_run_ms",
        t.elapsed().as_secs_f64() * 1e3,
    );
    let t = Instant::now();
    let report = black_box(runner.run(Direction::Forward));
    let warm = t.elapsed().as_secs_f64();
    vals.set("distfft.dryrun_warm_run_ms", warm * 1e3);
    let events: usize = report.traces.iter().map(|t| t.events.len()).sum();
    vals.set("distfft.dryrun_events_per_s", events as f64 / warm);
}

pub fn models(w: &Workload, vals: &mut Values) {
    let machine = machine();
    let t = Instant::now();
    black_box(fftmodels::tuner::tune(&machine, w.dims(), w.ranks));
    vals.set("fftmodels.tune_ms", t.elapsed().as_secs_f64() * 1e3);

    // What `reshape_chunks = 0` (model-driven) would pick for this plan:
    // recorded, not used by any workload.
    let auto_opts = w.options(w.backend, 0);
    let auto_plan = match w.kind {
        Kind::R2c => distfft::real3d::Real3dPlan::build(w.dims(), w.ranks, auto_opts).plan_c,
        _ => FftPlan::build(w.dims(), w.ranks, auto_opts),
    };
    let report = DryRunner::new(&auto_plan, &machine, dryrun_opts()).run(Direction::Forward);
    vals.set(
        "fftmodels.auto_chunks",
        report.traces.first().map_or(1, chunks_in_trace) as f64,
    );
}

pub fn obs_disabled_cost(vals: &mut Values) {
    assert!(!fftobs::enabled(), "probe measures the disabled path");
    const CALLS: u64 = 20_000_000;
    let t = Instant::now();
    for i in 0..CALLS {
        fftobs::count("fftbench.disabled_probe", black_box(i));
    }
    vals.set(
        "fftobs.disabled_count_ns",
        t.elapsed().as_secs_f64() * 1e9 / CALLS as f64,
    );
}

/// Runs `f` under a child span of `parent`.
pub fn spanned(log: &mut SpanLog, parent: usize, name: &str, f: impl FnOnce()) {
    let id = log.begin(name, Some(parent), 0);
    f();
    log.end(id);
}
