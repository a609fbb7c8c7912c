//! Distributed-transform correctness: every decomposition × backend
//! combination must compute exactly the same 3-D FFT as the local engine
//! (which is itself validated against the naive DFT).

mod common;

use common::{Bits, GRIDS};
use distfft::exec::{bind, execute, ExecCtx};
use distfft::plan::{CommBackend, FftOptions, FftPlan, IoLayout};
use distfft::procgrid::Distribution;
use distfft::{Box3, Decomp};
use fftkern::complex::max_abs_diff;
use fftkern::{Direction, Plan3d, C64};
use mpisim::comm::{Comm, World, WorldOpts};
use simgrid::MachineSpec;

/// Deterministic pseudo-random field.
fn field(n: [usize; 3]) -> Vec<C64> {
    (0..n[0] * n[1] * n[2])
        .map(|i| {
            let x = i as f64;
            C64::new((x * 0.37).sin() + 0.1, (x * 0.91).cos() - 0.2)
        })
        .collect()
}

/// Scatters the global field into per-rank local arrays of distribution `d`.
fn scatter(global: &[C64], plan: &FftPlan, dist_idx: usize, rank: usize) -> Vec<C64> {
    let b = plan.dists[dist_idx].rank_box(rank);
    let whole = distfft::Box3::whole(plan.n);
    whole.extract(global, b)
}

/// Gathers per-rank local arrays back into a global field.
fn gather(locals: &[Vec<C64>], plan: &FftPlan, dist_idx: usize) -> Vec<C64> {
    let whole = distfft::Box3::whole(plan.n);
    let mut global = vec![C64::ZERO; plan.total_elems()];
    for (r, local) in locals.iter().enumerate() {
        let b = plan.dists[dist_idx].rank_box(r);
        if !b.is_empty() {
            whole.deposit(&mut global, b, local);
        }
    }
    global
}

/// Runs a forward transform of `n` over `nranks` ranks and compares with the
/// local 3-D FFT of the same field.
fn check_forward(n: [usize; 3], nranks: usize, opts: FftOptions) {
    forward_matches_oracle(&FftPlan::build(n, nranks, opts));
}

/// Runs `plan` forward on the same field in every batch item and compares
/// each item with the local 3-D FFT of it.
fn forward_matches_oracle(plan: &FftPlan) {
    let (n, nranks) = (plan.n, plan.nranks);
    let world = World::new(MachineSpec::testbox(2), nranks, WorldOpts::default());
    let global = field(n);

    let locals = world.run(|rank| {
        let comm = Comm::world(rank);
        let bound = bind(plan, rank, &comm);
        let mut ctx = ExecCtx::new();
        let mut data = vec![scatter(&global, plan, 0, rank.rank()); plan.opts.batch];
        let res = execute(
            plan,
            &bound,
            &mut ctx,
            rank,
            &comm,
            &mut data,
            Direction::Forward,
        );
        assert!(res.total.as_ns() > 0 || plan.total_elems() == 0);
        data
    });

    let mut expect = global;
    Plan3d::new(n[0], n[1], n[2]).execute(&mut expect, Direction::Forward);
    for b in 0..plan.opts.batch {
        let per_rank: Vec<Vec<C64>> = locals.iter().map(|d| d[b].clone()).collect();
        let got = gather(&per_rank, plan, plan.dists.len() - 1);
        let err = max_abs_diff(&got, &expect);
        let scale = plan.total_elems() as f64;
        assert!(
            err < 1e-8 * scale,
            "forward mismatch in batch item {b}: err={err:.3e} for n={n:?} ranks={nranks} opts={:?}",
            plan.opts
        );
    }
}

/// Forward then inverse must reproduce the input scaled by N.
fn check_roundtrip(n: [usize; 3], nranks: usize, opts: FftOptions) {
    roundtrip_matches(&FftPlan::build(n, nranks, opts));
}

/// Forward then inverse of `plan` must reproduce every batch item's input
/// scaled by N.
fn roundtrip_matches(plan: &FftPlan) {
    let world = World::new(MachineSpec::testbox(2), plan.nranks, WorldOpts::default());
    let global = field(plan.n);
    let batch = plan.opts.batch;

    let locals = world.run(|rank| {
        let comm = Comm::world(rank);
        let bound = bind(plan, rank, &comm);
        let mut ctx = ExecCtx::new();
        let mine = scatter(&global, plan, 0, rank.rank());
        let mut data = vec![mine; batch];
        for dir in [Direction::Forward, Direction::Inverse] {
            execute(plan, &bound, &mut ctx, rank, &comm, &mut data, dir);
        }
        data
    });

    let total = plan.total_elems() as f64;
    for b in 0..batch {
        let per_rank: Vec<Vec<C64>> = locals.iter().map(|d| d[b].clone()).collect();
        let got = gather(&per_rank, plan, 0);
        let expect: Vec<C64> = global.iter().map(|v| v.scale(total)).collect();
        let err = max_abs_diff(&got, &expect);
        assert!(
            err < 1e-7 * total,
            "roundtrip mismatch in batch item {b}: err={err:.3e} opts={:?}",
            plan.opts
        );
    }
}

const ALL_BACKENDS: [CommBackend; 5] = [
    CommBackend::AllToAll,
    CommBackend::AllToAllV,
    CommBackend::AllToAllW,
    CommBackend::P2p,
    CommBackend::P2pBlocking,
];

/// Forward and round-trip output bits of every batch item on every rank
/// (`out[rank][item] = [forward, round trip]`). Item `b` of the batch is
/// the field scaled by `first_item + b + 1`, so a batched run and a loop of
/// unbatched ones see the same inputs.
fn transform_bits(
    n: [usize; 3],
    nranks: usize,
    opts: FftOptions,
    first_item: usize,
) -> Vec<Vec<[Bits; 2]>> {
    let plan = FftPlan::build(n, nranks, opts);
    let world = World::new(MachineSpec::testbox(2), nranks, WorldOpts::default());
    let global = field(n);
    let bits = |item: &Vec<C64>| -> Bits {
        item.iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect()
    };
    world.run(|rank| {
        let comm = Comm::world(rank);
        let bound = bind(&plan, rank, &comm);
        let mut ctx = ExecCtx::new();
        let mine = scatter(&global, &plan, 0, rank.rank());
        let mut data: Vec<Vec<C64>> = (0..plan.opts.batch)
            .map(|b| {
                let scale = (first_item + b + 1) as f64;
                mine.iter().map(|v| v.scale(scale)).collect()
            })
            .collect();
        let mut run = |data: &mut Vec<Vec<C64>>, dir| {
            execute(&plan, &bound, &mut ctx, rank, &comm, data, dir);
            data.iter().map(bits).collect::<Vec<Bits>>()
        };
        let fwd = run(&mut data, Direction::Forward);
        let back = run(&mut data, Direction::Inverse);
        fwd.into_iter().zip(back).map(|(f, b)| [f, b]).collect()
    })
}

#[test]
fn backends_move_the_clock_never_the_bytes() {
    // One host data path: on the same plan geometry the five backends
    // differ in what the exchange *costs*, so forward and round-trip data
    // must agree bit for bit.
    for n in GRIDS {
        let of = |backend| {
            let opts = FftOptions {
                backend,
                ..FftOptions::default()
            };
            transform_bits(n, 4, opts, 0)
        };
        let reference = of(CommBackend::AllToAllV);
        for backend in ALL_BACKENDS {
            assert_eq!(
                of(backend),
                reference,
                "n={n:?}: {backend:?} data differs from AllToAllV"
            );
        }
    }
}

#[test]
fn batched_alltoallw_equals_looped() {
    // Items coalesce per destination; each must come out exactly as its
    // own unbatched transform would, at either reshape chunking.
    for reshape_chunks in [1, 4] {
        let opts = |batch, pipeline_chunks| FftOptions {
            backend: CommBackend::AllToAllW,
            batch,
            pipeline_chunks,
            reshape_chunks,
            ..FftOptions::default()
        };
        let batched = transform_bits([8, 6, 10], 8, opts(3, 2), 0);
        for item in 0..3 {
            let looped = transform_bits([8, 6, 10], 8, opts(1, 1), item);
            for (rank, (b, l)) in batched.iter().zip(&looped).enumerate() {
                assert_eq!(
                    b[item], l[0],
                    "rank {rank} item {item} reshape_chunks={reshape_chunks}"
                );
            }
        }
    }
}

#[test]
fn pencils_alltoallv_matches_local_fft() {
    check_forward([8, 8, 8], 4, FftOptions::default());
    check_forward([12, 8, 10], 6, FftOptions::default());
}

#[test]
fn pencils_alltoall_padded_matches_local_fft() {
    check_forward(
        [10, 9, 8],
        6,
        FftOptions {
            backend: CommBackend::AllToAll,
            ..FftOptions::default()
        },
    );
}

#[test]
fn pencils_alltoallw_matches_local_fft() {
    check_forward(
        [8, 8, 8],
        6,
        FftOptions {
            backend: CommBackend::AllToAllW,
            ..FftOptions::default()
        },
    );
}

#[test]
fn pencils_p2p_matches_local_fft() {
    check_forward(
        [8, 10, 12],
        6,
        FftOptions {
            backend: CommBackend::P2p,
            ..FftOptions::default()
        },
    );
    check_forward(
        [8, 8, 8],
        4,
        FftOptions {
            backend: CommBackend::P2pBlocking,
            ..FftOptions::default()
        },
    );
}

#[test]
fn slabs_match_local_fft() {
    check_forward(
        [8, 8, 8],
        4,
        FftOptions {
            decomp: Decomp::Slabs,
            ..FftOptions::default()
        },
    );
    check_forward(
        [8, 8, 8],
        8,
        FftOptions {
            decomp: Decomp::Slabs,
            io: IoLayout::Matching,
            backend: CommBackend::P2p,
            ..FftOptions::default()
        },
    );
}

#[test]
fn bricks_match_local_fft() {
    check_forward(
        [8, 8, 8],
        12,
        FftOptions {
            decomp: Decomp::Bricks,
            ..FftOptions::default()
        },
    );
}

#[test]
fn matching_io_roundtrip() {
    check_roundtrip(
        [8, 8, 8],
        6,
        FftOptions {
            io: IoLayout::Matching,
            ..FftOptions::default()
        },
    );
}

#[test]
fn brick_io_roundtrip_all_backends() {
    for backend in [
        CommBackend::AllToAll,
        CommBackend::AllToAllV,
        CommBackend::P2p,
        CommBackend::P2pBlocking,
    ] {
        check_roundtrip(
            [8, 6, 10],
            6,
            FftOptions {
                backend,
                ..FftOptions::default()
            },
        );
    }
}

#[test]
fn single_rank_roundtrip() {
    check_roundtrip([8, 8, 8], 1, FftOptions::default());
}

#[test]
fn prime_rank_count_roundtrip() {
    check_roundtrip([10, 10, 14], 7, FftOptions::default());
}

#[test]
fn grid_shrinking_roundtrip_and_correctness() {
    check_forward(
        [8, 8, 8],
        8,
        FftOptions {
            shrink_to: Some(2),
            ..FftOptions::default()
        },
    );
    check_roundtrip(
        [8, 8, 8],
        8,
        FftOptions {
            shrink_to: Some(3),
            ..FftOptions::default()
        },
    );
}

#[test]
fn batched_transforms_roundtrip() {
    check_roundtrip(
        [6, 6, 6],
        4,
        FftOptions {
            batch: 5,
            pipeline_chunks: 3,
            ..FftOptions::default()
        },
    );
}

#[test]
fn contiguous_fft_mode_is_numerically_identical() {
    check_forward(
        [8, 8, 8],
        6,
        FftOptions {
            contiguous_fft: true,
            backend: CommBackend::AllToAll,
            ..FftOptions::default()
        },
    );
}

#[test]
fn non_pow2_domain_with_bluestein_sizes() {
    // 11 is prime: exercises the Bluestein path inside the distributed FFT.
    check_forward([11, 6, 9], 6, FftOptions::default());
}

#[test]
fn alltoallw_matching_io_roundtrip() {
    check_roundtrip(
        [8, 8, 8],
        6,
        FftOptions {
            backend: CommBackend::AllToAllW,
            io: IoLayout::Matching,
            ..FftOptions::default()
        },
    );
}

#[test]
fn slabs_with_every_backend() {
    for backend in ALL_BACKENDS {
        check_forward(
            [8, 8, 8],
            4,
            FftOptions {
                decomp: Decomp::Slabs,
                backend,
                ..FftOptions::default()
            },
        );
    }
}

#[test]
fn rank_counts_that_do_not_divide_the_domain() {
    // 5 ranks over 8³: uneven chunks everywhere, pencil grid (1,5).
    check_roundtrip([8, 8, 8], 5, FftOptions::default());
    // 9 ranks (3x3 pencil grid) over a domain not divisible by 3.
    check_forward([8, 10, 8], 9, FftOptions::default());
}

#[test]
fn wide_flat_and_tall_domains() {
    check_forward([32, 2, 2], 4, FftOptions::default());
    check_forward([2, 2, 32], 4, FftOptions::default());
    check_forward([2, 32, 2], 4, FftOptions::default());
}

#[test]
fn batched_with_p2p_backend() {
    check_roundtrip(
        [6, 6, 6],
        4,
        FftOptions {
            backend: CommBackend::P2p,
            batch: 4,
            pipeline_chunks: 2,
            ..FftOptions::default()
        },
    );
}

#[test]
fn shrink_to_single_rank() {
    // Extreme shrinking: the whole FFT computed by rank 0.
    check_roundtrip(
        [8, 8, 8],
        6,
        FftOptions {
            shrink_to: Some(1),
            ..FftOptions::default()
        },
    );
}

#[test]
fn sparse_and_irregular_layouts_every_backend_and_decomp() {
    // Shapes where some ranks hold empty boxes or sit outside every
    // reshape group. Target arrays come out of the pool un-zeroed (NaN in
    // debug builds), so a box a copy misses fails the oracle here.
    let n = [8, 8, 8];
    // custom_io.rs's L-shaped split, which no processor grid can express.
    let user_boxes = || {
        Distribution::from_boxes(
            n,
            vec![
                Box3::new([0, 0, 0], [8, 8, 3]),
                Box3::new([0, 0, 3], [5, 8, 8]),
                Box3::new([5, 0, 3], [8, 4, 8]),
                Box3::new([5, 4, 3], [8, 8, 8]),
            ],
        )
    };
    let mut outside_a_group = false;
    let mut check = |plan: &FftPlan| {
        outside_a_group |= plan.reshapes.iter().any(|s| s.group_of.contains(&None));
        forward_matches_oracle(plan);
        roundtrip_matches(plan);
    };
    for decomp in [Decomp::Slabs, Decomp::Pencils, Decomp::Bricks] {
        for backend in ALL_BACKENDS {
            let opts = FftOptions {
                decomp,
                backend,
                ..FftOptions::default()
            };
            let shrunk = FftOptions {
                shrink_to: Some(3),
                ..opts.clone()
            };
            // More ranks than pencils; a shrink count that divides nothing.
            for plan in [
                FftPlan::try_build([3, 4, 5], 8, opts.clone()),
                FftPlan::try_build(n, 8, shrunk),
            ] {
                plan.iter().for_each(&mut check);
            }
            check(&FftPlan::build_with_io(
                n,
                4,
                opts,
                user_boxes(),
                user_boxes(),
            ));
        }
    }
    check(&FftPlan::build(
        [3, 4, 5],
        8,
        FftOptions {
            batch: 3,
            pipeline_chunks: 2,
            ..FftOptions::default()
        },
    ));
    assert!(outside_a_group, "no shape left a rank outside every group");
}
