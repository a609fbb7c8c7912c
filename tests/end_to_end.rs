//! Cross-crate integration tests: the full stack from tuner to functional
//! execution, and the paper's headline claims as assertions.

use distfft::dryrun::{DryRunOpts, DryRunner};
use distfft::exec::{bind, execute, ExecCtx};
use distfft::plan::{CommBackend, FftOptions, FftPlan, IoLayout};
use distfft::Decomp;
use fftkern::{Direction, C64};
use fftmodels::bandwidth::ModelParams;
use fftmodels::phase::crossover_ranks;
use fftmodels::tuner::tune;
use miniapps::md::{run_rhodopsin, RhodopsinConfig};
use miniapps::poisson::{solve_poisson_distributed, test_density};
use miniapps::spectral::batching_comparison;
use mpisim::comm::{Comm, World, WorldOpts};
use simgrid::MachineSpec;

const N512: [usize; 3] = [512, 512, 512];

#[test]
fn tuned_configuration_executes_functionally() {
    // Tune at a small scale, then actually run the tuned plan with real data.
    let machine = MachineSpec::summit();
    let n = [16usize, 16, 16];
    let ranks = 12;
    let choice = tune(&machine, n, ranks);
    let plan = FftPlan::build(n, ranks, choice.opts.clone());

    let world = World::new(
        machine,
        ranks,
        WorldOpts {
            gpu_aware: choice.gpu_aware,
            ..WorldOpts::default()
        },
    );
    let errs = world.run(|rank| {
        let comm = Comm::world(rank);
        let bound = bind(&plan, rank, &comm);
        let mut ctx = ExecCtx::new();
        let vol = plan.dists[0].rank_box(rank.rank()).volume();
        let orig: Vec<C64> = (0..vol).map(|i| C64::new(i as f64, -1.0)).collect();
        let mut data = vec![orig.clone()];
        execute(
            &plan,
            &bound,
            &mut ctx,
            rank,
            &comm,
            &mut data,
            Direction::Forward,
        );
        execute(
            &plan,
            &bound,
            &mut ctx,
            rank,
            &comm,
            &mut data,
            Direction::Inverse,
        );
        let scale = 1.0 / plan.total_elems() as f64;
        data[0]
            .iter()
            .zip(&orig)
            .map(|(g, w)| (g.scale(scale) - *w).abs())
            .fold(0.0, f64::max)
    });
    for (r, e) in errs.iter().enumerate() {
        assert!(*e < 1e-9, "rank {r} round-trip error {e}");
    }
}

#[test]
fn headline_total_time_at_24_gpus_matches_paper_ballpark() {
    // §IV-B: the 512³ c2c FFT on 24 V100s takes ≈0.09 s with either backend.
    let machine = MachineSpec::summit();
    for backend in [CommBackend::AllToAllV, CommBackend::P2p] {
        let plan = FftPlan::build(
            N512,
            24,
            FftOptions {
                backend,
                ..FftOptions::default()
            },
        );
        let mut runner = DryRunner::new(&plan, &machine, DryRunOpts::default());
        let avg = runner.timed_average(2, 4);
        assert!(
            (0.05..0.20).contains(&avg.as_secs()),
            "{backend:?}: {avg} out of the paper's ≈0.09 s ballpark"
        );
    }
}

#[test]
fn communication_dominates_at_24_gpus() {
    // §II: "communication for this problem [512³ on 24 GPUs] over 90% of
    // runtime".
    let machine = MachineSpec::summit();
    let plan = FftPlan::build(N512, 24, FftOptions::default());
    let mut runner = DryRunner::new(&plan, &machine, DryRunOpts::default());
    let _ = runner.run(Direction::Forward);
    let rep = runner.run(Direction::Forward);
    let comm = rep.comm_max().as_secs();
    let total = rep.makespan().as_secs();
    assert!(
        comm / total > 0.9,
        "comm share {:.1}% should exceed 90%",
        100.0 * comm / total
    );
}

#[test]
fn model_crossover_matches_dryrun_crossover() {
    // §IV-A: the bandwidth model predicts slabs < 64 nodes; the simulated
    // machine must agree with its own closed-form abstraction.
    let machine = MachineSpec::summit();
    let counts = [96usize, 192, 384, 768];
    let model_cross = crossover_ranks(N512, &counts, &ModelParams::summit());
    assert_eq!(model_cross, Some(384));

    // Dry-run comparison at 32 nodes (slabs should win) and 64 (pencils).
    let avg = |decomp: Decomp, ranks: usize| {
        let plan = FftPlan::build(
            N512,
            ranks,
            FftOptions {
                decomp,
                ..FftOptions::default()
            },
        );
        DryRunner::new(&plan, &machine, DryRunOpts::default()).timed_average(2, 2)
    };
    assert!(avg(Decomp::Slabs, 192) < avg(Decomp::Pencils, 192));
    assert!(avg(Decomp::Pencils, 384) <= avg(Decomp::Slabs, 384));
}

#[test]
fn gpu_aware_p2p_fails_at_scale_but_alltoall_does_not() {
    // Figs. 8/9 jointly.
    let machine = MachineSpec::summit();
    let comm_time = |backend: CommBackend, ranks: usize, aware: bool| {
        let plan = FftPlan::build(
            N512,
            ranks,
            FftOptions {
                backend,
                ..FftOptions::default()
            },
        );
        let mut r = DryRunner::new(
            &plan,
            &machine,
            DryRunOpts {
                gpu_aware: aware,
                ..DryRunOpts::default()
            },
        );
        // Average over forward+inverse pairs, like the paper's protocol —
        // forward and inverse reshapes have different peer structures.
        let _ = r.run(Direction::Forward);
        let _ = r.run(Direction::Inverse);
        let a = r.run(Direction::Forward).comm_max();
        let b = r.run(Direction::Inverse).comm_max();
        a + b
    };
    // A2A keeps scaling 96 -> 768 with GPU-awareness.
    assert!(
        comm_time(CommBackend::AllToAllV, 768, true) < comm_time(CommBackend::AllToAllV, 96, true)
    );
    // GPU-aware P2P bottoms around 64 nodes and gets *slower* toward 768
    // ranks (the Fig. 9 cliff); staged P2P keeps scaling all the way.
    assert!(comm_time(CommBackend::P2p, 768, true) > comm_time(CommBackend::P2p, 384, true));
    assert!(comm_time(CommBackend::P2p, 768, false) < comm_time(CommBackend::P2p, 96, false));
}

#[test]
fn rhodopsin_kspace_cut_and_poisson_and_batching() {
    let machine = MachineSpec::summit();

    // Fig. 12: KSPACE ~40% faster with tuned settings.
    let d = run_rhodopsin(&machine, &RhodopsinConfig::fftmpi_default(2));
    let t = run_rhodopsin(&machine, &RhodopsinConfig::heffte_tuned(2));
    let cut = 1.0 - t.kspace.as_ns() as f64 / d.kspace.as_ns() as f64;
    assert!((0.25..0.55).contains(&cut), "KSPACE cut {:.2}", cut);

    // HACC-style Poisson solve is numerically exact vs the serial solver.
    let rho = test_density([16, 16, 16]);
    let res = solve_poisson_distributed(
        &MachineSpec::testbox(2),
        4,
        [16, 16, 16],
        FftOptions::default(),
        &rho,
    );
    assert!(res.rel_error < 1e-12);

    // Fig. 13: batching a 64³ transform gives a substantial speedup.
    let (batched, isolated) =
        batching_comparison(&machine, [64, 64, 64], 24, 16, &FftOptions::default());
    let speedup = isolated.as_ns() as f64 / batched.as_ns() as f64;
    assert!(speedup > 1.8, "batching speedup {speedup:.2} too small");
}

#[test]
fn grid_shrinking_helps_small_transforms_on_many_ranks() {
    // DESIGN.md ablation / Algorithm 1 line 2: a 64³ transform on 768 ranks
    // is overhead-bound (tiny per-pair messages, 767 posted pairs per
    // collective); shrinking the FFT grid to 96 ranks must win. Shrinking
    // too far (to 24) funnels all data through too few NICs and loses —
    // the trade-off the paper's "controlling an amount of memory and
    // resources enough for the computation" phrasing implies.
    let machine = MachineSpec::summit();
    let avg = |shrink: Option<usize>| {
        let plan = FftPlan::build(
            [64, 64, 64],
            768,
            FftOptions {
                shrink_to: shrink,
                ..FftOptions::default()
            },
        );
        DryRunner::new(&plan, &machine, DryRunOpts::default()).timed_average(2, 2)
    };
    let full = avg(None);
    let shrunk = avg(Some(96));
    let too_far = avg(Some(24));
    assert!(
        (shrunk.as_ns() as f64) < full.as_ns() as f64 * 0.8,
        "shrinking to 96 should win >20%: shrunk {shrunk} vs full {full}"
    );
    assert!(too_far > shrunk, "over-shrinking should backfire");
}

#[test]
fn alltoallw_loses_on_gpu_arrays_despite_saving_pack() {
    // §II: Algorithm 2 eliminates pack/unpack (<10% of runtime) but the
    // unoptimized Alltoallw more than eats the savings on GPU arrays.
    let machine = MachineSpec::summit();
    let avg = |backend| {
        let plan = FftPlan::build(
            [128, 128, 128],
            24,
            FftOptions {
                backend,
                io: IoLayout::Brick,
                ..FftOptions::default()
            },
        );
        DryRunner::new(&plan, &machine, DryRunOpts::default()).timed_average(2, 2)
    };
    assert!(avg(CommBackend::AllToAllW) > avg(CommBackend::AllToAllV));
}

#[test]
fn two_dimensional_transforms_via_degenerate_axis() {
    // Batched 2-D support (paper contribution): an n0 x n1 x 1 domain is a
    // 2-D transform; verify distributed == local.
    let n = [16usize, 12, 1];
    let ranks = 4;
    let plan = FftPlan::build(n, ranks, FftOptions::default());
    let world = World::new(MachineSpec::testbox(2), ranks, WorldOpts::default());
    let total = n[0] * n[1];
    let global: Vec<C64> = (0..total)
        .map(|i| C64::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
        .collect();
    let whole = distfft::Box3::whole(n);

    let locals = world.run(|rank| {
        let comm = Comm::world(rank);
        let bound = bind(&plan, rank, &comm);
        let mut ctx = ExecCtx::new();
        let b = plan.dists[0].rank_box(rank.rank());
        let mut data = vec![whole.extract(&global, b)];
        execute(
            &plan,
            &bound,
            &mut ctx,
            rank,
            &comm,
            &mut data,
            Direction::Forward,
        );
        data.remove(0)
    });

    let out_idx = plan.dists.len() - 1;
    let mut got = vec![C64::ZERO; total];
    for (r, local) in locals.iter().enumerate() {
        let b = plan.dists[out_idx].rank_box(r);
        if !b.is_empty() {
            whole.deposit(&mut got, b, local);
        }
    }
    let mut want = global;
    fftkern::nd::fft_3d(&mut want, n[0], n[1], 1, Direction::Forward);
    let err = fftkern::complex::max_abs_diff(&got, &want);
    assert!(err < 1e-9 * total as f64, "2-D mismatch: {err}");
}

#[test]
fn straggler_drags_every_rank() {
    // Failure injection: one throttled GPU (3x slower compute) delays the
    // whole machine — collectives wait for the straggler.
    let machine = MachineSpec::summit();
    let plan = FftPlan::build([64, 64, 64], 12, FftOptions::default());
    let mut healthy = DryRunner::new(&plan, &machine, DryRunOpts::default());
    let t_healthy = healthy.timed_average(1, 2);
    let mut degraded = DryRunner::new(
        &plan,
        &machine,
        DryRunOpts {
            compute_slowdown: vec![(5, 3.0)],
            ..DryRunOpts::default()
        },
    );
    let t_degraded = degraded.timed_average(1, 2);
    assert!(
        t_degraded > t_healthy,
        "straggler should slow the whole FFT: {t_degraded} vs {t_healthy}"
    );
    // The network part is unaffected, so the hit is bounded by the extra
    // compute time, not a 3x blowup of the whole transform.
    assert!(t_degraded.as_ns() < 3 * t_healthy.as_ns());
}
