//! Criterion benchmarks for the hot-path execution overhaul: cached 1-D
//! plans + pooled scratch vs the old build-per-call path (`plan_reuse`),
//! the per-rank reshape-buffer pool in the functional executor
//! (`reshape_pool`), and the parallel analytic sweeps (`sweep_parallel`).
//!
//! `cargo bench -p fft-bench --bench hot_path`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use distfft::exec::{bind, execute, ExecCtx};
use distfft::plan::{FftOptions, FftPlan};
use fftkern::plan::{Engine, Layout, Plan1d};
use fftkern::{plan_cache, Direction, C64};
use mpisim::comm::{Comm, World, WorldOpts};
use simgrid::MachineSpec;

fn signal(n: usize) -> Vec<C64> {
    (0..n)
        .map(|i| C64::new((0.1 * i as f64).sin(), (0.3 * i as f64).cos()))
        .collect()
}

/// Cold path (pre-overhaul engine): build a legacy radix-2 plan on every
/// call and let `execute_inplace` allocate its own scratch. Warm path: fetch
/// the Stockham plan from the global cache and run through a caller-held
/// scratch buffer — the same A/B protocol as `bench_snapshot`.
fn bench_plan_reuse(c: &mut Criterion) {
    // (n, batch): a pow2 production size and an awkward Bluestein size —
    // the plan-build cost the cache removes is largest for the latter.
    for (n, batch) in [(512usize, 16usize), (499, 1)] {
        let mut group = c.benchmark_group(format!("plan_reuse_{n}x{batch}"));
        let mut data = signal(n * batch);
        group.bench_function("cold_build_per_call", |b| {
            b.iter(|| {
                let plan = Plan1d::with_engine(
                    n,
                    batch,
                    Layout::contiguous(n),
                    Layout::contiguous(n),
                    Engine::Legacy,
                );
                plan.execute_inplace(&mut data, Direction::Forward);
            });
        });
        let mut scratch = Vec::new();
        group.bench_function("warm_cache_pooled_scratch", |b| {
            b.iter(|| {
                let plan =
                    plan_cache().plan1d(n, batch, Layout::contiguous(n), Layout::contiguous(n));
                if scratch.len() < plan.scratch_elems() {
                    scratch.resize(plan.scratch_elems(), C64::ZERO);
                }
                plan.execute_inplace_scratch(&mut data, Direction::Forward, &mut scratch);
            });
        });
        group.finish();
    }
}

/// Strided-axis batch (the mid-axis of a pencil decomposition): 64
/// interleaved lines of 512 points at stride 64. Cold = legacy per-line
/// gather/scatter radix-2, built per call; warm = cached Stockham plan
/// running lane-interleaved panels of adjacent lines.
fn bench_strided_axis(c: &mut Criterion) {
    let (n, stride) = (512usize, 64usize);
    let mut group = c.benchmark_group("strided_axis_512x64");
    group.sample_size(20);
    let mut data = signal(n * stride);
    group.bench_function("cold_legacy_per_line", |b| {
        b.iter(|| {
            let plan = Plan1d::with_engine(
                n,
                stride,
                Layout::strided(stride),
                Layout::strided(stride),
                Engine::Legacy,
            );
            plan.execute_inplace(&mut data, Direction::Forward);
        });
    });
    let mut scratch = Vec::new();
    group.bench_function("warm_panels", |b| {
        b.iter(|| {
            let plan =
                plan_cache().plan1d(n, stride, Layout::strided(stride), Layout::strided(stride));
            if scratch.len() < plan.scratch_elems() {
                scratch.resize(plan.scratch_elems(), C64::ZERO);
            }
            plan.execute_inplace_scratch(&mut data, Direction::Forward, &mut scratch);
        });
    });
    group.finish();
}

/// Functional distributed execute, pre-overhaul vs overhauled — the same
/// A/B as `bench_snapshot`'s functional row: fresh legacy-baseline contexts
/// on an unfused, unmemoized world vs a long-lived multi-worker context on
/// a default world.
fn bench_reshape_pool(c: &mut Criterion) {
    let machine = MachineSpec::testbox(2);
    let plan = FftPlan::build([16, 16, 16], 8, FftOptions::default());
    let mut group = c.benchmark_group("reshape_pool_16cubed_8ranks");
    group.sample_size(10);
    for (label, reuse) in [("legacy_baseline", false), ("pooled_ctx", true)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &reuse, |b, &reuse| {
            b.iter(|| {
                let opts = WorldOpts {
                    sched_memo: reuse,
                    fused_meta: reuse,
                    ..WorldOpts::default()
                };
                let world = World::new(machine.clone(), 8, opts);
                world.run(|rank| {
                    let comm = Comm::world(rank);
                    let bound = bind(&plan, rank, &comm);
                    let fresh = || {
                        if reuse {
                            ExecCtx::with_threads(2)
                        } else {
                            ExecCtx::legacy_baseline()
                        }
                    };
                    let mut ctx = fresh();
                    let vol = plan.dists[0].rank_box(rank.rank()).volume();
                    for _ in 0..8 {
                        if !reuse {
                            ctx = fresh(); // drop pools + plans every rep
                        }
                        let mut data = vec![vec![C64::ONE; vol]];
                        execute(
                            &plan,
                            &bound,
                            &mut ctx,
                            rank,
                            &comm,
                            &mut data,
                            Direction::Forward,
                        );
                    }
                })
            });
        });
    }
    group.finish();
}

/// Analytic sweep over a ladder of rank counts, serial vs `par_map`.
fn bench_sweep_parallel(c: &mut Criterion) {
    let m = MachineSpec::summit();
    let ladder = [6usize, 12, 24, 48, 96, 192];
    let mut group = c.benchmark_group("sweep_parallel_fig4_ladder");
    group.sample_size(10);
    let run = |threads: usize| {
        fftmodels::par::par_map_with(threads, &ladder, |&ranks| {
            fft_bench::timed_average(&m, [64, 64, 64], ranks, FftOptions::default(), true)
        })
    };
    group.bench_function("serial", |b| b.iter(|| run(1)));
    group.bench_function("par_map", |b| b.iter(|| run(fftmodels::sweep_threads())));
    group.finish();
}

criterion_group!(
    benches,
    bench_plan_reuse,
    bench_strided_axis,
    bench_reshape_pool,
    bench_sweep_parallel
);
criterion_main!(benches);
