//! General (user-supplied) input/output grids — the feature §III of the
//! paper attributes to fftMPI, heFFTe and SWFFT only — plus the fallible
//! plan-construction API.

use distfft::exec::{bind, execute, ExecCtx};
use distfft::plan::{CommBackend, FftOptions, FftPlan, PlanError};
use distfft::procgrid::Distribution;
use distfft::{Box3, Decomp};
use fftkern::complex::max_abs_diff;
use fftkern::{Direction, Plan3d, C64};
use mpisim::comm::{Comm, World, WorldOpts};
use simgrid::MachineSpec;

/// An intentionally irregular (non-grid) partition of an 8×8×8 domain over
/// 4 ranks: an L-shaped split no processor grid can express.
fn weird_partition() -> Vec<Box3> {
    vec![
        Box3::new([0, 0, 0], [8, 8, 3]), // front slab
        Box3::new([0, 0, 3], [5, 8, 8]), // lower back block
        Box3::new([5, 0, 3], [8, 4, 8]), // upper back left
        Box3::new([5, 4, 3], [8, 8, 8]), // upper back right
    ]
}

#[test]
fn irregular_io_boxes_roundtrip_correctly() {
    let n = [8usize, 8, 8];
    let ranks = 4;
    let boxes = weird_partition();
    let input = Distribution::from_boxes(n, boxes.clone());
    let output = Distribution::from_boxes(n, boxes);
    let plan = FftPlan::build_with_io(n, ranks, FftOptions::default(), input, output);

    let total = 512;
    let global: Vec<C64> = (0..total)
        .map(|i| C64::new((0.21 * i as f64).sin(), (0.47 * i as f64).cos()))
        .collect();
    let whole = Box3::whole(n);

    let world = World::new(MachineSpec::testbox(2), ranks, WorldOpts::default());
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

    // Gather from the irregular output layout and compare with the local FFT.
    let out_idx = plan.dists.len() - 1;
    let mut got = vec![C64::ZERO; total];
    for (r, local) in locals.iter().enumerate() {
        let b = plan.dists[out_idx].rank_box(r);
        if !b.is_empty() {
            whole.deposit(&mut got, b, local);
        }
    }
    let mut want = global;
    Plan3d::new(8, 8, 8).execute(&mut want, Direction::Forward);
    assert!(max_abs_diff(&got, &want) < 1e-8 * total as f64);
}

#[test]
fn asymmetric_io_input_brick_output_pencil() {
    // Input on a brick grid, output directly in the last pencil layout:
    // only 3 exchanges needed instead of 4.
    let n = [8usize, 8, 8];
    let ranks = 6;
    let input = Distribution::new(n, [1, 2, 3], ranks);
    let output = Distribution::new(n, [2, 3, 1], ranks);
    let plan = FftPlan::build_with_io(n, ranks, FftOptions::default(), input, output);
    assert_eq!(plan.exchange_count(), 2); // brick == first pencil grid here
    let p2 = FftPlan::build_with_io(
        n,
        ranks,
        FftOptions::default(),
        Distribution::new(n, [6, 1, 1], ranks),
        Distribution::new(n, [2, 3, 1], ranks),
    );
    assert_eq!(p2.exchange_count(), 3);
}

#[test]
fn from_boxes_rejects_overlap_and_gaps() {
    let n = [4usize, 4, 4];
    // Overlapping boxes.
    let overlapping = vec![
        Box3::new([0, 0, 0], [4, 4, 3]),
        Box3::new([0, 0, 2], [4, 4, 4]),
    ];
    assert!(std::panic::catch_unwind(|| Distribution::from_boxes(n, overlapping)).is_err());
    // A gap.
    let gappy = vec![
        Box3::new([0, 0, 0], [4, 4, 2]),
        Box3::new([0, 0, 3], [4, 4, 4]),
    ];
    assert!(std::panic::catch_unwind(|| Distribution::from_boxes(n, gappy)).is_err());
    // Out of bounds.
    let oob = vec![Box3::new([0, 0, 0], [4, 4, 5])];
    assert!(std::panic::catch_unwind(|| Distribution::from_boxes(n, oob)).is_err());
}

#[test]
fn try_build_reports_precise_errors() {
    let ok = FftPlan::try_build([8, 8, 8], 4, FftOptions::default());
    assert!(ok.is_ok());

    assert_eq!(
        FftPlan::try_build([0, 8, 8], 4, FftOptions::default()).unwrap_err(),
        PlanError::DegenerateTransform([0, 8, 8])
    );
    assert_eq!(
        FftPlan::try_build([8, 8, 8], 0, FftOptions::default()).unwrap_err(),
        PlanError::NoRanks
    );
    assert_eq!(
        FftPlan::try_build(
            [8, 8, 8],
            4,
            FftOptions {
                batch: 0,
                ..FftOptions::default()
            }
        )
        .unwrap_err(),
        PlanError::EmptyBatch
    );
    assert_eq!(
        FftPlan::try_build(
            [8, 8, 8],
            4,
            FftOptions {
                shrink_to: Some(9),
                ..FftOptions::default()
            }
        )
        .unwrap_err(),
        PlanError::BadShrink {
            requested: 9,
            nranks: 4
        }
    );
    assert_eq!(
        FftPlan::try_build(
            [8, 8, 8],
            12,
            FftOptions {
                decomp: Decomp::Slabs,
                ..FftOptions::default()
            }
        )
        .unwrap_err(),
        PlanError::SlabLimit {
            active: 12,
            limit: 8
        }
    );
    // Batched Alltoallw is a plan like any other: items coalesce per
    // destination exactly as they do for the other backends.
    let batched_w = FftPlan::try_build(
        [8, 8, 8],
        4,
        FftOptions {
            backend: CommBackend::AllToAllW,
            batch: 2,
            ..FftOptions::default()
        },
    );
    assert_eq!(batched_w.map(|p| p.opts.batch), Ok(2));
    // Errors display as readable messages.
    let msg = PlanError::SlabLimit {
        active: 12,
        limit: 8,
    }
    .to_string();
    assert!(msg.contains("12") && msg.contains("8"));
}

#[test]
fn pencil_grid_past_the_domain_is_an_error_not_a_panic() {
    // 384 ranks want a (16, 24) pencil grid; a 4³ domain splits at most
    // 16 ways across either pair of axes.
    assert_eq!(
        FftPlan::try_build([4, 4, 4], 384, FftOptions::default()).unwrap_err(),
        PlanError::PencilLimit {
            grid: (16, 24),
            n: [4, 4, 4]
        }
    );
}
