//! The steady state's allocations, counted: every heap allocation a warm
//! forward + inverse pair makes, summed over the world, pinned as literals.
//!
//! The executor is planned once and executed many times (heFFTe's
//! contract), so after one warm-up pair every later pair allocates the same
//! fixed amount. Each rank thread snapshots its own count around the
//! second pair ([`fftkern::counting`] counts per thread). Per-rank counts
//! are not fixed: the member that deposits last prices the exchange group,
//! so the pricing allocations land on whichever rank that is. Their sum
//! over the world is fixed, on every rerun and SIMD tier. A change that
//! allocates more (or less) on the steady path fails here with the
//! configuration that moved; the companion pin for the analytic dry run
//! counts a warm `DryRunner` pair on the test thread.

use distfft::dryrun::{DryRunOpts, DryRunner};
use distfft::exec::{bind, execute, ExecCtx};
use distfft::plan::{CommBackend, FftOptions, FftPlan};
use distfft::real3d::Real3dPlan;
use distfft::Decomp;
use fftkern::counting::{allocations, Counting};
use fftkern::simd::{self, SimdTier};
use fftkern::{Direction, C64};
use mpisim::comm::{Comm, World, WorldOpts};
use simgrid::MachineSpec;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations of the second of two forward + inverse pairs of `pair`,
/// summed over a world of `ranks` ranks.
fn world_sum(ranks: usize, pair: impl Fn(&mut mpisim::comm::Rank) -> u64 + Sync) -> u64 {
    let world = World::new(MachineSpec::testbox(2), ranks, WorldOpts::default());
    world.run(pair).iter().sum()
}

/// Steady-state allocations of a complex plan, summed over the world.
fn exec_allocations(n: usize, ranks: usize, opts: FftOptions) -> u64 {
    let plan = FftPlan::build([n; 3], ranks, opts);
    world_sum(ranks, |rank| {
        let comm = Comm::world(rank);
        let bound = bind(&plan, rank, &comm);
        let mut ctx = ExecCtx::new();
        let volume = plan.dists[0].rank_box(rank.rank()).volume();
        let mut data = vec![vec![C64::new(0.5, -0.25); volume]; plan.opts.batch];
        let mut pair = || {
            for dir in [Direction::Forward, Direction::Inverse] {
                execute(&plan, &bound, &mut ctx, rank, &comm, &mut data, dir);
            }
        };
        pair();
        let before = allocations();
        pair();
        allocations() - before
    })
}

/// Steady-state allocations of an r2c → c2r plan, summed over the world.
fn real_allocations(n: usize, ranks: usize, opts: FftOptions) -> u64 {
    let plan = Real3dPlan::build([n; 3], ranks, opts);
    world_sum(ranks, |rank| {
        let comm = Comm::world(rank);
        let bound = plan.bind(rank, &comm);
        let mut ctx = ExecCtx::new();
        let mut reals = vec![0.5; plan.real_input_box(rank.rank()).volume()];
        let mut pair = || {
            let spectrum = plan.execute_forward(&bound, &mut ctx, rank, &comm, &reals);
            reals = plan.execute_inverse(&bound, &mut ctx, rank, &comm, spectrum);
        };
        pair();
        let before = allocations();
        pair();
        allocations() - before
    })
}

/// Allocations of the second of two forward + inverse `DryRunner` pairs.
fn dryrun_allocations(n: usize, ranks: usize) -> u64 {
    let plan = FftPlan::build([n; 3], ranks, FftOptions::default());
    let spec = MachineSpec::summit();
    let mut runner = DryRunner::new(&plan, &spec, DryRunOpts::default());
    let mut pair = || {
        runner.run(Direction::Forward);
        runner.run(Direction::Inverse);
    };
    pair();
    let before = allocations();
    pair();
    allocations() - before
}

const BACKENDS: [CommBackend; 5] = [
    CommBackend::AllToAll,
    CommBackend::AllToAllV,
    CommBackend::AllToAllW,
    CommBackend::P2p,
    CommBackend::P2pBlocking,
];

/// Steady-state allocations of every backend × `reshape_chunks` ∈ {1, 4,
/// 0 (auto)} at 32³ on 8 ranks (pencils, brick I/O).
#[test]
fn every_backend_and_chunking_allocates_a_pinned_amount() {
    let mut got = Vec::new();
    for backend in BACKENDS {
        for reshape_chunks in [1, 4, 0] {
            let opts = FftOptions {
                backend,
                reshape_chunks,
                ..FftOptions::default()
            };
            got.push((backend, reshape_chunks, exec_allocations(32, 8, opts)));
        }
    }
    use CommBackend::*;
    #[rustfmt::skip]
    let want = vec![
        (AllToAll, 1, 962), (AllToAll, 4, 1176), (AllToAll, 0, 1413),
        (AllToAllV, 1, 936), (AllToAllV, 4, 1160), (AllToAllV, 0, 1320),
        (AllToAllW, 1, 920), (AllToAllW, 4, 1144), (AllToAllW, 0, 1304),
        (P2p, 1, 958), (P2p, 4, 1166), (P2p, 0, 1342),
        (P2pBlocking, 1, 958), (P2pBlocking, 4, 1166), (P2pBlocking, 0, 1342),
    ];
    assert_eq!(got, want);
}

/// The two shapes of `work_record.rs` at their default options.
#[test]
fn work_record_shapes_allocate_a_pinned_amount() {
    let got = [
        exec_allocations(64, 8, FftOptions::default()),
        exec_allocations(32, 24, FftOptions::default()),
    ];
    assert_eq!(got, [936, 2906]);
}

/// An r2c → c2r pair (60³ on 6 ranks, slabs, P2p, 4 reshape chunks: the
/// `r2c-slab-p2p-60x6` workload) and a batch of two in two pipeline
/// chunks.
#[test]
fn real_and_batched_plans_allocate_a_pinned_amount() {
    let real = FftOptions {
        decomp: Decomp::Slabs,
        backend: CommBackend::P2p,
        reshape_chunks: 4,
        ..FftOptions::default()
    };
    let batched = FftOptions {
        batch: 2,
        pipeline_chunks: 2,
        ..FftOptions::default()
    };
    let got = [
        real_allocations(60, 6, real),
        exec_allocations(32, 8, batched),
    ];
    assert_eq!(got, [849, 1808]);
}

/// A warm dry-run pair on Summit: the schedule walkers' exit-time passes
/// and the group pricing, with no data moved.
#[test]
fn warm_dry_runs_allocate_a_pinned_amount() {
    assert_eq!(
        [dryrun_allocations(64, 8), dryrun_allocations(32, 24)],
        [408, 1220]
    );
}

/// The counts above hold on every SIMD tier the host has: the vector
/// kernels run in place on the caller's scratch.
#[test]
fn allocations_do_not_depend_on_the_simd_tier() {
    let real = FftOptions {
        decomp: Decomp::Slabs,
        backend: CommBackend::P2p,
        reshape_chunks: 4,
        ..FftOptions::default()
    };
    for tier in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512] {
        if !simd::tier_available(tier) {
            continue;
        }
        simd::force_tier(Some(tier));
        let got = [
            exec_allocations(64, 8, FftOptions::default()),
            real_allocations(60, 6, real.clone()),
        ];
        simd::force_tier(None);
        assert_eq!(got, [936, 849], "{tier:?}");
    }
}
