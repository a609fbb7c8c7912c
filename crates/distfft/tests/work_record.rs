//! The host work of a transform, pinned as literals: every rank's
//! `ExecWork` and `RankWork` after one forward + inverse pair, summed over
//! the world, at the test-scale shapes of the `pencil-128x8` (64³ on 8
//! ranks) and `small-32x24` (32³ on 24 ranks) benchmark workloads. A change
//! that makes a transform copy, fill, transform, lower or synchronise more
//! than it did fails here with the field that moved; the replay suites
//! already hold each rank's record fixed across reruns and SIMD tiers.

mod common;

use common::run_world;
use distfft::dryrun::{DryRunOpts, DryRunner};
use distfft::exec::{bind, execute, ExecCtx, ExecWork};
use distfft::plan::{FftOptions, FftPlan};
use distfft::PoolStats;
use fftkern::{Direction, C64};
use mpisim::comm::{Comm, RankWork, World, WorldOpts};
use simgrid::MachineSpec;

/// The world's summed record of one forward + inverse pair of the default
/// plan (pencils, `MPI_Alltoallv`, brick I/O, one reshape chunk).
fn world_work(n: usize, ranks: usize) -> (ExecWork, RankWork) {
    let runs = run_world([n; 3], ranks, FftOptions::default(), WorldOpts::default());
    let mut sum = (ExecWork::default(), RankWork::default());
    for run in &runs {
        let (exec, net) = run.work;
        sum.0.pool.hits += exec.pool.hits;
        sum.0.pool.misses += exec.pool.misses;
        sum.0.pool.evictions += exec.pool.evictions;
        sum.0.filled_bytes += exec.filled_bytes;
        sum.0.copied_bytes += exec.copied_bytes;
        sum.0.fft_points += exec.fft_points;
        sum.0.lowered += exec.lowered;
        sum.1.rounds += net.rounds;
        sum.1.exchanges += net.exchanges;
        sum.1.exchange_bytes += net.exchange_bytes;
    }
    sum
}

/// What follows from the plan alone: each direction transforms every point
/// along each of the three axes, and its four reshapes (brick → x, y, z
/// pencils → brick) copy every element once.
fn check_laws(n: usize, (exec, _): (ExecWork, RankWork)) {
    let points = (n * n * n) as u64;
    assert_eq!(exec.fft_points, 2 * 3 * points, "{n}³: points transformed");
    assert_eq!(exec.copied_bytes, 2 * 4 * points * 16, "{n}³: bytes copied");
}

#[test]
fn pencil_64_on_8_ranks_does_pinned_host_work() {
    let work = world_work(64, 8);
    check_laws(64, work);
    let want = (
        ExecWork {
            pool: PoolStats {
                hits: 48,
                misses: 16,
                evictions: 0,
            },
            filled_bytes: 8_388_608,
            copied_bytes: 33_554_432,
            fft_points: 1_572_864,
            lowered: 64,
        },
        RankWork {
            rounds: 128,
            exchanges: 64,
            exchange_bytes: 33_554_432,
        },
    );
    assert_eq!(work, want);
}

#[test]
fn small_32_on_24_ranks_does_pinned_host_work() {
    let work = world_work(32, 24);
    check_laws(32, work);
    let want = (
        ExecWork {
            pool: PoolStats {
                hits: 144,
                misses: 48,
                evictions: 0,
            },
            filled_bytes: 1_114_112,
            copied_bytes: 4_194_304,
            fft_points: 196_608,
            lowered: 192,
        },
        RankWork {
            rounds: 384,
            exchanges: 192,
            exchange_bytes: 4_194_304,
        },
    );
    assert_eq!(work, want);
}

#[test]
fn a_warm_transform_lowers_nothing() {
    // `bind` lowers each rank's 8 schedules (4 reshapes × 2 directions);
    // the first transform counts them and a second pair adds none.
    let plan = FftPlan::build([64; 3], 8, FftOptions::default());
    let world = World::new(MachineSpec::testbox(2), 8, WorldOpts::default());
    let lowered = world.run(|rank| {
        let comm = Comm::world(rank);
        let bound = bind(&plan, rank, &comm);
        let mut ctx = ExecCtx::new();
        let volume = plan.dists[0].rank_box(rank.rank()).volume();
        let mut data = vec![vec![C64::new(0.5, -0.25); volume]];
        let mut pair = |ctx: &mut ExecCtx| {
            for dir in [Direction::Forward, Direction::Inverse] {
                execute(&plan, &bound, ctx, rank, &comm, &mut data, dir);
            }
            ctx.work().lowered
        };
        [pair(&mut ctx), pair(&mut ctx)]
    });
    let sum = |i: usize| lowered.iter().map(|l| l[i]).sum::<u64>();
    assert_eq!((sum(0), sum(1)), (64, 64));
}

#[test]
fn a_dry_runner_lowers_each_reshape_once() {
    // The functional pair above lowers 64 schedules, one per rank per
    // reshape; a dry runner lowers the same 64 on its first pair and none
    // after, however many transforms follow.
    let plan = FftPlan::build([64; 3], 8, FftOptions::default());
    let spec = MachineSpec::summit();
    let mut runner = DryRunner::new(&plan, &spec, DryRunOpts::default());
    runner.run(Direction::Forward);
    runner.run(Direction::Inverse);
    let first = runner.work();
    runner.timed_average(2, 3);
    let want = ExecWork {
        lowered: 64,
        ..ExecWork::default()
    };
    assert_eq!((first, runner.work()), (want, want));
}
