//! Distributed r2c/c2r correctness: against the embedded complex transform
//! and round trips, plus the half-cost property.

use distfft::exec::ExecCtx;
use distfft::plan::FftOptions;
use distfft::real3d::Real3dPlan;
use distfft::Box3;
use fftkern::{Direction, Plan3d, C64};
use mpisim::comm::{Comm, World, WorldOpts};
use simgrid::MachineSpec;

fn real_field(n: [usize; 3]) -> Vec<f64> {
    (0..n[0] * n[1] * n[2])
        .map(|i| (0.17 * i as f64).sin() + 0.4 * (0.53 * i as f64).cos())
        .collect()
}

fn scatter_reals(global: &[f64], plan: &Real3dPlan, rank: usize) -> Vec<f64> {
    let b = plan.real_input_box(rank);
    let whole = Box3::whole(plan.n);
    // Box3::extract is C64-typed; do the f64 gather by hand.
    let mut out = Vec::with_capacity(b.volume());
    for i0 in b.lo[0]..b.hi[0] {
        for i1 in b.lo[1]..b.hi[1] {
            for i2 in b.lo[2]..b.hi[2] {
                out.push(global[(i0 * plan.n[1] + i1) * plan.n[2] + i2]);
            }
        }
    }
    let _ = whole;
    out
}

#[test]
fn distributed_r2c_matches_embedded_c2c() {
    let n = [8usize, 6, 8];
    let ranks = 6;
    let plan = Real3dPlan::build(n, ranks, FftOptions::default());
    let global = real_field(n);

    let world = World::new(MachineSpec::testbox(2), ranks, WorldOpts::default());
    let blocks = world.run(|rank| {
        let comm = Comm::world(rank);
        let bound = plan.bind(rank, &comm);
        let mut ctx = ExecCtx::new();
        let mine = scatter_reals(&global, &plan, rank.rank());
        plan.execute_forward(&bound, &mut ctx, rank, &comm, &mine)
    });

    // Gather the half spectrum.
    let mh = [n[0], n[1], plan.h];
    let whole_h = Box3::whole(mh);
    let mut got = vec![C64::ZERO; mh[0] * mh[1] * mh[2]];
    for (r, block) in blocks.iter().enumerate() {
        let b = plan.spectrum_box(r);
        if !b.is_empty() {
            whole_h.deposit(&mut got, &b, block);
        }
    }

    // Reference: full complex transform of the embedded reals, truncated to
    // the non-redundant axis-2 bins.
    let mut full: Vec<C64> = global.iter().map(|&v| C64::real(v)).collect();
    Plan3d::new(n[0], n[1], n[2]).execute(&mut full, Direction::Forward);
    let mut err: f64 = 0.0;
    for i0 in 0..n[0] {
        for i1 in 0..n[1] {
            for k in 0..plan.h {
                let want = full[(i0 * n[1] + i1) * n[2] + k];
                let have = got[(i0 * mh[1] + i1) * mh[2] + k];
                err = err.max((have - want).abs());
            }
        }
    }
    assert!(err < 1e-8 * (n[0] * n[1] * n[2]) as f64, "r2c error {err}");
}

#[test]
fn distributed_r2c_c2r_roundtrip() {
    let n = [6usize, 8, 10];
    let ranks = 4;
    let plan = Real3dPlan::build(n, ranks, FftOptions::default());
    let global = real_field(n);
    let norm = plan.normalization();

    let world = World::new(MachineSpec::testbox(2), ranks, WorldOpts::default());
    let errs = world.run(|rank| {
        let comm = Comm::world(rank);
        let bound = plan.bind(rank, &comm);
        let mut ctx = ExecCtx::new();
        let mine = scatter_reals(&global, &plan, rank.rank());
        let spec = plan.execute_forward(&bound, &mut ctx, rank, &comm, &mine);
        let back = plan.execute_inverse(&bound, &mut ctx, rank, &comm, spec);
        back.iter()
            .zip(&mine)
            .map(|(got, want)| (got / norm - want).abs())
            .fold(0.0, f64::max)
    });
    for (r, e) in errs.iter().enumerate() {
        assert!(*e < 1e-9, "rank {r} roundtrip error {e}");
    }
}

#[test]
fn r2c_moves_half_the_bytes_of_embedded_c2c() {
    // The point of true r2c: the packed-domain reshape carries half the
    // complex volume.
    let n = [32usize, 32, 32];
    let ranks = 8;
    let r2c = Real3dPlan::build(n, ranks, FftOptions::default());
    let c2c = distfft::plan::FftPlan::build(n, ranks, FftOptions::default());
    let bytes = |spec: &distfft::reshape::ReshapeSpec| -> usize {
        (0..ranks).map(|r| spec.offrank_send_bytes(r)).sum()
    };
    // First data reshape of each pipeline.
    let r2c_first = bytes(&r2c.plan_a.reshapes[0]);
    let c2c_first = bytes(&c2c.reshapes[0]);
    assert!(
        r2c_first * 2 <= c2c_first + 16 * ranks,
        "r2c first reshape {r2c_first} B should be ~half of c2c {c2c_first} B"
    );
}

#[test]
fn r2c_dryrun_cheaper_than_c2c() {
    let n = [64usize, 64, 64];
    let ranks = 24;
    let machine = MachineSpec::summit();
    let r2c = Real3dPlan::build(n, ranks, FftOptions::default());
    let t_r2c = r2c.dryrun_forward(&machine, distfft::dryrun::DryRunOpts::default());
    let c2c = distfft::plan::FftPlan::build(n, ranks, FftOptions::default());
    let mut runner =
        distfft::dryrun::DryRunner::new(&c2c, &machine, distfft::dryrun::DryRunOpts::default());
    let t_c2c = runner.run(Direction::Forward).makespan();
    assert!(
        t_r2c < t_c2c,
        "r2c ({t_r2c}) should beat the embedded c2c ({t_c2c})"
    );
}

#[test]
fn odd_n2_rejected() {
    assert!(Real3dPlan::try_build([8, 8, 7], 4, FftOptions::default()).is_err());
}

#[test]
fn batched_r2c_rejected_with_typed_error() {
    // Batched r2c is unimplemented; the old behavior silently forced
    // `batch: 1`, transforming less data than requested.
    let err = Real3dPlan::try_build(
        [8, 8, 6],
        4,
        FftOptions {
            batch: 3,
            ..FftOptions::default()
        },
    )
    .unwrap_err();
    assert_eq!(err, distfft::PlanError::R2cBatched { batch: 3 });
    assert!(
        err.to_string().contains("batch 3"),
        "error must name the offending batch: {err}"
    );
    // batch == 1 stays accepted.
    assert!(Real3dPlan::try_build(
        [8, 8, 6],
        4,
        FftOptions {
            batch: 1,
            ..FftOptions::default()
        }
    )
    .is_ok());
}

#[test]
fn shrunk_r2c_rejected_with_typed_error() {
    // The r2c pipeline computes on every rank; a grid-shrinking request
    // used to be dropped silently.
    let err = Real3dPlan::try_build(
        [8, 8, 6],
        4,
        FftOptions {
            shrink_to: Some(2),
            ..FftOptions::default()
        },
    )
    .unwrap_err();
    assert_eq!(err, distfft::PlanError::R2cShrink { shrink_to: 2 });
    assert!(
        err.to_string().contains("shrink_to 2"),
        "error must name the offending target: {err}"
    );
}

#[test]
fn chunked_slab_p2p_r2c_is_bit_identical_to_monolithic() {
    // The benchmark's r2c shape (slabs + P2p on 6 ranks) at a fixed and the
    // auto chunk count: chunking moves the clock, never the bytes.
    let n = [12usize, 12, 10];
    let ranks = 6;
    let machine = MachineSpec::testbox(2);
    let global = real_field(n);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let run = |reshape_chunks: usize| {
        let opts = FftOptions {
            decomp: distfft::Decomp::Slabs,
            backend: distfft::CommBackend::P2p,
            reshape_chunks,
            ..FftOptions::default()
        };
        let plan = Real3dPlan::build(n, ranks, opts);
        let world = World::new(machine.clone(), ranks, WorldOpts::default());
        let out = world.run(|rank| {
            let comm = Comm::world(rank);
            let bound = plan.bind(rank, &comm);
            let mut ctx = ExecCtx::new();
            let mine = scatter_reals(&global, &plan, rank.rank());
            let spec = plan.execute_forward(&bound, &mut ctx, rank, &comm, &mine);
            let spec_bits: Vec<_> = spec.iter().flat_map(|c| bits(&[c.re, c.im])).collect();
            let back = plan.execute_inverse(&bound, &mut ctx, rank, &comm, spec);
            let norm = plan.normalization();
            let err = back
                .iter()
                .zip(&mine)
                .map(|(got, want)| (got / norm - want).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-9, "chunks={reshape_chunks}: roundtrip error {err}");
            (spec_bits, bits(&back))
        });
        let t = plan.dryrun_forward(&machine, distfft::dryrun::DryRunOpts::default());
        (out, t)
    };
    let (mono, t_mono) = run(1);
    for chunks in [4, 0] {
        let (got, t) = run(chunks);
        assert_eq!(got, mono, "chunks={chunks}: data diverged from monolithic");
        if chunks == 4 {
            assert_ne!(t, t_mono, "4 chunks never changed the schedule");
        }
    }
}

#[test]
fn slab_r2c_roundtrip_and_matches_pencils() {
    // The slab pipeline (one fewer reshape) must produce the same spectrum
    // as the pencil pipeline and round-trip to the input.
    let n = [8usize, 8, 6];
    let ranks = 4;
    let slabs = FftOptions {
        decomp: distfft::Decomp::Slabs,
        ..FftOptions::default()
    };
    let plan_s = Real3dPlan::build(n, ranks, slabs);
    let plan_p = Real3dPlan::build(n, ranks, FftOptions::default());
    assert_eq!(
        plan_s.plan_a.reshapes.len() + plan_s.plan_c.reshapes.len() + 1,
        plan_p.plan_a.reshapes.len() + plan_p.plan_c.reshapes.len(),
        "slabs must save one reshape over pencils"
    );
    let global = real_field(n);
    let mh = [n[0], n[1], plan_s.h];
    let whole_h = Box3::whole(mh);

    let spectrum_of = |plan: &Real3dPlan| -> Vec<C64> {
        let world = World::new(MachineSpec::testbox(2), ranks, WorldOpts::default());
        let blocks = world.run(|rank| {
            let comm = Comm::world(rank);
            let bound = plan.bind(rank, &comm);
            let mut ctx = ExecCtx::new();
            let mine = scatter_reals(&global, plan, rank.rank());
            let spec = plan.execute_forward(&bound, &mut ctx, rank, &comm, &mine);
            let back = plan.execute_inverse(&bound, &mut ctx, rank, &comm, spec.clone());
            let norm = plan.normalization();
            let err = back
                .iter()
                .zip(&mine)
                .map(|(got, want)| (got / norm - want).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-9, "roundtrip error {err}");
            spec
        });
        let mut got = vec![C64::ZERO; mh[0] * mh[1] * mh[2]];
        for (r, block) in blocks.iter().enumerate() {
            let b = plan.spectrum_box(r);
            if !b.is_empty() {
                whole_h.deposit(&mut got, &b, block);
            }
        }
        got
    };

    let s = spectrum_of(&plan_s);
    let p = spectrum_of(&plan_p);
    let err = s
        .iter()
        .zip(&p)
        .map(|(a, b)| (*a - *b).abs())
        .fold(0.0, f64::max);
    assert!(err < 1e-9, "slab vs pencil spectrum differs by {err}");
}

#[test]
fn slab_rank_limit_rejected() {
    let err = Real3dPlan::try_build(
        [4, 4, 8],
        8,
        FftOptions {
            decomp: distfft::Decomp::Slabs,
            ..FftOptions::default()
        },
    );
    assert!(err.is_err(), "8 ranks of 4-wide slabs must be rejected");
}
