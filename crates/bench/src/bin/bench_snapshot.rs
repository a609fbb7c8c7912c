//! Self-timed snapshot of the hot-path microbenchmarks, emitted as JSON so
//! the speedup of the kernel-engine overhaul is recorded in-tree
//! (`BENCH_engine.json`) and checkable by CI without the Criterion harness.
//!
//! Usage: `cargo run --release -p fft-bench --bin bench_snapshot [out.json]`
//! (or `scripts/bench_snapshot`). Exits non-zero if the headline
//! repeated-transform microbench falls below the 2x acceptance threshold.
//!
//! Cold vs warm: **cold** is the faithful pre-overhaul path — the seed's
//! `Engine::Legacy` scalar radix-2 kernels (bit-reversal pass, per-line
//! gather/scatter), a fresh plan built per call, allocating execution,
//! butterfly dispatch pinned to the scalar tier (`FFT_SIMD=off`
//! equivalent), and for the distributed row a fresh serial `ExecCtx` per
//! transform. **Warm** is the overhauled path — Stockham autosort kernels
//! under auto SIMD dispatch (widest of scalar/AVX2/AVX-512 the host has),
//! the global plan cache, caller-held scratch, and for the distributed row
//! a long-lived context with pooled buffers and `> 1` executor workers.
//! The tier pinning uses `fftkern::simd::force_tier`, the in-process
//! equivalent of the `FFT_SIMD` env knob (which is read only once).

use std::time::Instant;

use distfft::dryrun::{DryRunOpts, DryRunner};
use distfft::exec::{bind, execute, ExecCtx};
use distfft::plan::{FftOptions, FftPlan};
use fftkern::plan::{Engine, Layout, Plan1d};
use fftkern::simd::{self, SimdTier};
use fftkern::{plan_cache, Direction, C64};
use mpisim::comm::{Comm, World, WorldOpts};
use simgrid::MachineSpec;

/// Executor worker count used for the warm distributed row.
const WARM_EXEC_THREADS: usize = 2;

fn median_ns(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Median-of-samples wall time per call for a cold/warm pair, in
/// nanoseconds. Samples are *interleaved* (cold, warm, cold, warm, …) so a
/// sustained clock-speed drift — thermal throttling after minutes of
/// full-load CI — hits both legs equally instead of landing entirely on
/// whichever leg happens to be measured last.
fn time_pair_ns(
    mut cold: impl FnMut(),
    mut warm: impl FnMut(),
    iters: u32,
    samples: u32,
) -> (f64, f64) {
    // One untimed warm-up sample per leg absorbs lazy init (twiddle
    // interning, page faults) so both variants start from the same global
    // state.
    for _ in 0..iters {
        cold();
    }
    for _ in 0..iters {
        warm();
    }
    let mut cold_samples = Vec::with_capacity(samples as usize);
    let mut warm_samples = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            cold();
        }
        cold_samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
        let start = Instant::now();
        for _ in 0..iters {
            warm();
        }
        warm_samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    (median_ns(cold_samples), median_ns(warm_samples))
}

fn signal(n: usize) -> Vec<C64> {
    (0..n)
        .map(|i| C64::new((0.1 * i as f64).sin(), (0.3 * i as f64).cos()))
        .collect()
}

struct Row {
    name: &'static str,
    cold_ns: f64,
    warm_ns: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.cold_ns / self.warm_ns
    }
}

/// Cold = the pre-overhaul inner loop: a fresh legacy-engine `Plan1d` per
/// call, scratch allocated inside `execute_inplace`. Warm = overhauled
/// engine via the global plan cache + caller-held scratch. Same transform,
/// same data; the engines agree within FFT round-off
/// (`tests/equivalence.rs` asserts it exhaustively).
fn plan_reuse_row(name: &'static str, n: usize, batch: usize, layout: Layout, iters: u32) -> Row {
    // Strided layouts interleave lines; the buffer is batch*n either way.
    // Two data buffers so the legs don't hand each other warmed caches in
    // lockstep; both start from the same signal.
    let mut cold_data = signal(n * batch);
    let mut warm_data = cold_data.clone();
    let mut scratch = Vec::new();
    let (cold_ns, warm_ns) = time_pair_ns(
        || {
            // Pinned scalar butterflies: the legacy engine never dispatches
            // SIMD, but the pin makes the pre-overhaul baseline explicit
            // (and keeps it honest if the legacy path ever learns to).
            simd::force_tier(Some(SimdTier::Scalar));
            let plan = Plan1d::with_engine(n, batch, layout, layout, Engine::Legacy);
            plan.execute_inplace(&mut cold_data, Direction::Forward);
        },
        || {
            simd::force_tier(None); // auto: widest detected tier
            let plan = plan_cache().plan1d(n, batch, layout, layout);
            if scratch.len() < plan.scratch_elems() {
                scratch.resize(plan.scratch_elems(), C64::ZERO);
            }
            plan.execute_inplace_scratch(&mut warm_data, Direction::Forward, &mut scratch);
        },
        iters,
        7,
    );
    simd::force_tier(None);
    Row {
        name,
        cold_ns,
        warm_ns,
    }
}

/// Functional distributed transform. Cold = the pre-overhaul executor: a
/// fresh serial [`ExecCtx::legacy_baseline`] per transform (legacy radix-2
/// kernels, fresh 1-D plans, empty reshape pool) on a world without the
/// collective-schedule memo. Warm = the overhauled executor: a long-lived
/// context with [`WARM_EXEC_THREADS`] workers whose pool and kernel
/// scratch stay warm across calls, on a memoizing world.
fn reshape_pool_row(iters: u32) -> Row {
    let machine = MachineSpec::testbox(2);
    let plan = FftPlan::build([16, 16, 16], 8, FftOptions::default());
    let run = |reuse_ctx: bool, iters: u32| {
        // Tier pinning mirrors the plan-reuse rows: cold = scalar
        // butterflies, warm = auto dispatch. Set before the world spawns
        // its rank threads (the force is process-global).
        simd::force_tier(if reuse_ctx {
            None
        } else {
            Some(SimdTier::Scalar)
        });
        let opts = WorldOpts {
            sched_memo: reuse_ctx,
            fused_meta: reuse_ctx,
            ..WorldOpts::default()
        };
        let world = World::new(machine.clone(), 8, opts);
        let plan = &plan;
        let times = world.run(move |rank| {
            let comm = Comm::world(rank);
            let bound = bind(plan, rank, &comm);
            let fresh_ctx = || {
                if reuse_ctx {
                    ExecCtx::with_threads(WARM_EXEC_THREADS)
                } else {
                    ExecCtx::legacy_baseline()
                }
            };
            let mut ctx = fresh_ctx();
            let vol = plan.dists[0].rank_box(rank.rank()).volume();
            let mut data = vec![vec![C64::ONE; vol]];
            // Warm-up pass (also fills the pool for the reuse variant).
            execute(
                plan,
                &bound,
                &mut ctx,
                rank,
                &comm,
                &mut data,
                Direction::Forward,
            );
            let start = Instant::now();
            for _ in 0..iters {
                if !reuse_ctx {
                    ctx = fresh_ctx(); // drop pools + plans every rep
                }
                let mut data = vec![vec![C64::ONE; vol]];
                execute(
                    plan,
                    &bound,
                    &mut ctx,
                    rank,
                    &comm,
                    &mut data,
                    Direction::Forward,
                );
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        });
        times.iter().copied().fold(0.0, f64::max)
    };
    // Median over a few repetitions of the whole world run, with the
    // cold/warm runs interleaved so sustained clock drift cancels out of
    // the ratio (same rationale as `time_pair_ns`).
    let (mut cold_samples, mut warm_samples) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        cold_samples.push(run(false, iters));
        warm_samples.push(run(true, iters));
    }
    simd::force_tier(None);
    Row {
        name: "functional_exec_16cubed_8ranks",
        cold_ns: median_ns(cold_samples),
        warm_ns: median_ns(warm_samples),
    }
}

/// Analytic figure-style sweep. Cold = the pre-overhaul analytic path:
/// serial grid evaluation with the dry runner's collective-schedule memo
/// off, so every transform re-walks its O(p²) exit schedules. Warm = the
/// overhauled path: `par_map` fan-out (thread count from the host — 1 on a
/// single-core CI box) over memoizing runners. Samples are interleaved for
/// the same drift-cancellation reason as `time_pair_ns` — the previous
/// cold-all-then-warm-all shape of this row put all of the clock drift on
/// one leg, which is how an identical-work pair once recorded 0.98×.
fn sweep_parallel_row() -> Row {
    let m = MachineSpec::summit();
    let ladder = [6usize, 12, 24, 48, 96, 192];
    let sweep = |threads: usize, memo: bool| {
        fftmodels::par::par_map_with(threads, &ladder, |&ranks| {
            fft_bench::timed_average_memo(
                &m,
                [64, 64, 64],
                ranks,
                FftOptions::default(),
                true,
                memo,
            )
        })
    };
    let time = |threads: usize, memo: bool| {
        let start = Instant::now();
        let _ = sweep(threads, memo);
        start.elapsed().as_nanos() as f64
    };
    // One untimed pass per leg (lazy init), then interleaved samples.
    let _ = time(1, false);
    let _ = time(fftmodels::sweep_threads(), true);
    let (mut cold_samples, mut warm_samples) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        cold_samples.push(time(1, false));
        warm_samples.push(time(fftmodels::sweep_threads(), true));
    }
    Row {
        name: "analytic_sweep_6pt_ladder",
        cold_ns: median_ns(cold_samples),
        warm_ns: median_ns(warm_samples),
    }
}

/// Pipelined-reshape A/B (DESIGN.md §14): *simulated* average transform
/// time of the 8-rank pencil workload under the paper's measurement
/// protocol, monolithic reshapes (cold, `reshape_chunks = 1`) vs per-peer
/// chunked reshapes (warm, `reshape_chunks = 8`, clamped per group). Both
/// legs are exact schedule-walker outputs, so this row is deterministic —
/// its speedup moves only when the overlap model or the walkers change,
/// and the >25% `bench_compare` floor catches the overlap path turning
/// into a slowdown. The margin itself is structurally thin: chunking hides
/// pack/unpack kernels behind the wire, and on every modeled machine the
/// wire dominates — testbox's GPU-to-NIC ratio shows the largest win.
/// (`FFT_RESHAPE_CHUNKS` would override both legs; CI keeps it unset for
/// the snapshot run.)
fn reshape_overlap_row() -> Row {
    let m = MachineSpec::testbox(2);
    let sim_ns = |chunks: usize| {
        let opts = FftOptions {
            reshape_chunks: chunks,
            ..FftOptions::default()
        };
        let plan = FftPlan::build([64, 64, 64], 8, opts);
        let mut runner = DryRunner::new(&plan, &m, DryRunOpts::default());
        runner.timed_average(2, 4).as_ns() as f64
    };
    Row {
        name: "chunked_reshape_overlap_8ranks",
        cold_ns: sim_ns(1),
        warm_ns: sim_ns(8),
    }
}

/// Transform-ahead A/B (DESIGN.md §16): the 8-rank pencil protocol at
/// 128³, monolithic exchanges (cold, `reshape_chunks = 1`) vs the full
/// transform-ahead path (warm, `reshape_chunks = 0` — model-driven
/// auto-k with next-axis butterflies running as chunks land). Unlike the
/// §14 row the warm win comes from *compute* hidden under the wire, not
/// just pack/unpack; testbox again, whose GPU-to-NIC ratio leaves enough
/// butterfly time to hide (on the Summit model the wire so dominates that
/// auto correctly stays at k = 1 and the row would be flat). At this size
/// auto's pick ties the best fixed k, so the row also gates the selection
/// model. Deterministic schedule-walker output on both legs.
/// (`FFT_RESHAPE_CHUNKS` would override both legs; CI keeps it unset for
/// the snapshot run.)
fn transform_ahead_row() -> Row {
    let m = MachineSpec::testbox(2);
    let sim_ns = |chunks: usize| {
        let opts = FftOptions {
            reshape_chunks: chunks,
            ..FftOptions::default()
        };
        let plan = FftPlan::build([128, 128, 128], 8, opts);
        let mut runner = DryRunner::new(&plan, &m, DryRunOpts::default());
        runner.timed_average(2, 4).as_ns() as f64
    };
    Row {
        name: "transform_ahead_8ranks",
        cold_ns: sim_ns(1),
        warm_ns: sim_ns(0),
    }
}

/// Deterministic cache/pool efficiency numbers for the snapshot: a fresh
/// 8-rank functional run's scratch-pool stats (per-ctx, so parallel noise
/// can't skew them) plus the process-wide plan-cache totals.
fn efficiency_metrics() -> (distfft::PoolStats, u64, u64) {
    let machine = MachineSpec::testbox(2);
    let plan = FftPlan::build([16, 16, 16], 8, FftOptions::default());
    let world = World::new(machine, 8, WorldOpts::default());
    let plan_ref = &plan;
    let stats = world.run(move |rank| {
        let comm = Comm::world(rank);
        let bound = bind(plan_ref, rank, &comm);
        let mut ctx = ExecCtx::new();
        let vol = plan_ref.dists[0].rank_box(rank.rank()).volume();
        for _ in 0..6 {
            let mut data = vec![vec![C64::ONE; vol]];
            execute(
                plan_ref,
                &bound,
                &mut ctx,
                rank,
                &comm,
                &mut data,
                Direction::Forward,
            );
        }
        ctx.pool_stats()
    });
    let pool = stats
        .iter()
        .fold(distfft::PoolStats::default(), |a, s| distfft::PoolStats {
            hits: a.hits + s.hits,
            misses: a.misses + s.misses,
            evictions: a.evictions + s.evictions,
        });
    (pool, plan_cache().hits(), plan_cache().misses())
}

/// Span-duration percentiles (ns) over one deterministic protocol run of
/// the headline distributed configuration, estimated from a log₂
/// histogram — the same estimator the live metrics registry uses.
fn span_percentiles() -> (u64, u64, u64, u64) {
    let traces = fft_bench::protocol_traces(
        &MachineSpec::summit(),
        fft_bench::N64,
        24,
        FftOptions::default(),
        true,
        0.0,
    );
    let h = fftobs::Registry::new().histogram("span.dur_ns");
    let mut count = 0u64;
    for (rank, t) in traces.iter().enumerate() {
        for s in t.to_spans(rank as u32) {
            h.record(s.dur_ns);
            count += 1;
        }
    }
    (count, h.quantile(0.50), h.quantile(0.90), h.quantile(0.99))
}

fn main() {
    let obs = fft_bench::Obs::from_env();
    let mut out_path = String::from("BENCH_engine.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace-out" | "--profile-out" | "--ledger" => {
                let _ = args.next();
            }
            "--metrics" => {}
            other => out_path = other.to_string(),
        }
    }

    let rows = vec![
        // Headline acceptance microbench: repeated single transform of an
        // awkward (Bluestein) length, where per-call plan construction —
        // chirp tables plus two kernel FFTs — rivals the transform itself.
        plan_reuse_row(
            "repeated_transform_bluestein_499",
            499,
            1,
            Layout::contiguous(499),
            400,
        ),
        plan_reuse_row(
            "repeated_transform_pow2_512x16",
            512,
            16,
            Layout::contiguous(512),
            200,
        ),
        // Strided-axis panel path: interleaved lines (stride = batch), the
        // layout the distributed executor uses for axes 0/1. Cold runs the
        // legacy per-line gather/scatter; warm the lane-interleaved panels.
        plan_reuse_row("strided_axis_512x64", 512, 64, Layout::strided(64), 40),
        reshape_pool_row(64),
        sweep_parallel_row(),
        reshape_overlap_row(),
        transform_ahead_row(),
    ];

    let headline = rows[0].speedup();
    let threshold = 2.0;
    let (pool, pc_hits, pc_misses) = efficiency_metrics();

    let mut json = String::from("{\n");
    json.push_str("  \"suite\": \"kernel engine overhaul\",\n");
    json.push_str(
        "  \"protocol\": \"median of interleaved cold/warm samples, per-call ns; cold = pre-overhaul path (Engine::Legacy radix-2, scalar butterflies pinned, fresh plan per call, allocating execute, fresh serial ExecCtx, schedule memo off), warm = overhauled path (Stockham autosort, auto SIMD dispatch, PlanCache, pooled scratch, long-lived multi-worker ExecCtx, schedule memo on)\",\n",
    );
    json.push_str("  \"threads\": ");
    json.push_str(&fftmodels::sweep_threads().to_string());
    json.push_str(",\n  \"exec_threads\": ");
    json.push_str(&WARM_EXEC_THREADS.to_string());
    // Environment stamps: enough to interpret a regression report without
    // the machine it came from. `simd` is the tier the warm legs actually
    // dispatched; `cpu` the detected feature set — a 1.7× pow2 row from an
    // AVX-512 box and a scalar box are not comparable numbers. The
    // executor knobs (`reshape_chunks`, `exec_grain`) ride along because
    // they change the overlap schedule and the parallel split, two of the
    // biggest levers on the distributed rows.
    json.push_str(&format!(
        ",\n  \"env\": {{\"rustc\": \"{}\", \"git_rev\": \"{}\", \"threads\": {}, \"simd\": \"{}\", \"cpu\": \"{}\", \"reshape_chunks\": \"{}\", \"exec_grain\": {}}},\n",
        fft_bench::run_stamp("rustc", &["-V"]),
        fft_bench::run_stamp("git", &["rev-parse", "--short", "HEAD"]),
        fftmodels::sweep_threads(),
        simd::active_tier().name(),
        simd::detected_features(),
        distfft::exec::reshape_chunks_setting(1),
        distfft::exec::par_min_elems()
    ));
    json.push_str("  \"benches\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"cold_ns\": {:.1}, \"warm_ns\": {:.1}, \"speedup\": {:.2}}}{}\n",
            r.name,
            r.cold_ns,
            r.warm_ns,
            r.speedup(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    let pc_total = pc_hits + pc_misses;
    let pc_rate = if pc_total == 0 {
        0.0
    } else {
        pc_hits as f64 / pc_total as f64
    };
    let (span_count, p50, p90, p99) = span_percentiles();
    json.push_str(&format!(
        "  \"metrics\": {{\n    \"plan_cache\": {{\"hits\": {pc_hits}, \"misses\": {pc_misses}, \"hit_rate\": {pc_rate:.4}}},\n    \"exec_pool\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"hit_rate\": {:.4}}},\n    \"span_dur_ns\": {{\"count\": {span_count}, \"p50\": {p50}, \"p90\": {p90}, \"p99\": {p99}}}\n  }},\n",
        pool.hits,
        pool.misses,
        pool.evictions,
        pool.hit_rate()
    ));
    json.push_str(&format!(
        "  \"acceptance\": {{\"metric\": \"{}\", \"speedup\": {:.2}, \"threshold\": {threshold}, \"pass\": {}}}\n",
        rows[0].name,
        headline,
        headline >= threshold
    ));
    json.push_str("}\n");

    // --trace-out on the snapshot exports the timeline of one protocol run
    // of the headline distributed configuration.
    if obs.active() {
        let traces = fft_bench::protocol_traces(
            &MachineSpec::summit(),
            [64, 64, 64],
            24,
            FftOptions::default(),
            true,
            0.0,
        );
        obs.emit(&traces);
    }
    // --profile-out / --ledger profile the same configuration; the ledger
    // additionally appends a fingerprinted record for regression history.
    if obs.profiling() {
        let profile = fftprof::profile_config(
            "bench_snapshot_64cubed_24r",
            &MachineSpec::summit(),
            [64, 64, 64],
            24,
            FftOptions::default(),
            true,
        );
        obs.emit_profile(&profile);
        obs.emit_ledger(&profile);
    }

    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("{json}");
    println!("wrote {out_path}");
    for r in &rows {
        println!(
            "{:<40} cold {:>12.0} ns  warm {:>12.0} ns  speedup {:>5.2}x",
            r.name,
            r.cold_ns,
            r.warm_ns,
            r.speedup()
        );
    }
    if headline < threshold {
        eprintln!("FAIL: headline speedup {headline:.2}x below {threshold}x");
        std::process::exit(1);
    }
}
