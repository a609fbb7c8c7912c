//! Criterion benchmarks of the simulation engine itself: plan construction,
//! analytic execution, schedule walkers, and the functional executor. These
//! measure the *reproduction infrastructure* (host-side cost of simulating),
//! complementing the per-figure harnesses in `src/bin` which regenerate the
//! paper's numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use distfft::dryrun::{DryRunOpts, DryRunner};
use distfft::exec::{bind, execute, ExecCtx};
use distfft::plan::{FftOptions, FftPlan};
use fftkern::{Direction, C64};
use mpisim::comm::{Comm, World, WorldOpts};
use mpisim::pattern::{self, NetParams, PhaseEnv};
use simgrid::{MachineSpec, SimTime};

fn bench_plan_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_build_512cubed");
    for ranks in [24usize, 192, 768] {
        group.bench_with_input(BenchmarkId::from_parameter(ranks), &ranks, |b, &r| {
            b.iter(|| FftPlan::build([512, 512, 512], r, FftOptions::default()));
        });
    }
    group.finish();
}

fn bench_dryrun(c: &mut Criterion) {
    let machine = MachineSpec::summit();
    let mut group = c.benchmark_group("dryrun_forward_512cubed");
    group.sample_size(20);
    for ranks in [24usize, 768] {
        let plan = FftPlan::build([512, 512, 512], ranks, FftOptions::default());
        group.bench_with_input(BenchmarkId::from_parameter(ranks), &ranks, |b, _| {
            b.iter(|| {
                let mut runner = DryRunner::new(&plan, &machine, DryRunOpts::default());
                runner.run(Direction::Forward)
            });
        });
    }
    group.finish();
}

fn bench_walkers(c: &mut Criterion) {
    let machine = MachineSpec::summit();
    let np = NetParams::exact(&machine);
    let env = PhaseEnv::machine_wide(&machine, 768, 23, true, 1);
    let group_ranks: Vec<usize> = (0..768).collect();
    let entries = vec![SimTime::ZERO; 768];

    let mut g = c.benchmark_group("walkers_768ranks");
    g.bench_function("pairwise", |b| {
        b.iter(|| pattern::pairwise_times(&np, &env, &group_ranks, &entries, &|_, _| 4096, 0))
    });
    g.bench_function("scatter", |b| {
        b.iter(|| {
            pattern::scatter_times(
                &np,
                &env,
                &group_ranks,
                &entries,
                &|_, _| 4096,
                &pattern::ScatterPolicy {
                    flavor: pattern::P2pFlavor::NonBlocking,
                    post_zero: true,
                    inline_recv: false,
                    extra_send_ns: &|_, _| 0,
                    extra_recv_ns: &|_, _| 0,
                },
            )
        })
    });
    g.bench_function("bruck", |b| {
        let totals = vec![4096usize * 768; 768];
        b.iter(|| pattern::bruck_times(&np, &env, &group_ranks, &entries, &totals))
    });
    g.finish();
}

fn bench_functional_executor(c: &mut Criterion) {
    let machine = MachineSpec::testbox(2);
    let plan = FftPlan::build([16, 16, 16], 8, FftOptions::default());
    let mut group = c.benchmark_group("functional_16cubed_8ranks");
    group.sample_size(20);
    group.bench_function("forward", |b| {
        b.iter(|| {
            let world = World::new(machine.clone(), 8, WorldOpts::default());
            world.run(|rank| {
                let comm = Comm::world(rank);
                let bound = bind(&plan, rank, &comm);
                let mut ctx = ExecCtx::new();
                let vol = plan.dists[0].rank_box(rank.rank()).volume();
                let mut data = vec![vec![C64::ONE; vol]];
                execute(
                    &plan,
                    &bound,
                    &mut ctx,
                    rank,
                    &comm,
                    &mut data,
                    Direction::Forward,
                )
                .total
            })
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_plan_build,
    bench_dryrun,
    bench_walkers,
    bench_functional_executor
);
criterion_main!(benches);
