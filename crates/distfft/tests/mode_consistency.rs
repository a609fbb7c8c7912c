//! Functional-mode vs analytic-mode consistency.
//!
//! The two executors share the kernel model and the schedule walkers, so for
//! the same plan and options the simulated times — per rank, per MPI call,
//! per kernel — must agree *exactly*. Every large-scale figure in the
//! reproduction rests on this property.

use distfft::dryrun::{DryRunOpts, DryRunner};
use distfft::exec::{bind, execute, ExecCtx};
use distfft::plan::{CommBackend, FftOptions, FftPlan, IoLayout};
use distfft::trace::Trace;
use distfft::Decomp;
use fftkern::{Direction, C64};
use mpisim::comm::{Comm, World, WorldOpts};
use mpisim::MpiDistro;
use simgrid::{MachineSpec, SimTime};

fn field(plan: &FftPlan, dist_idx: usize, rank: usize) -> Vec<C64> {
    let b = plan.dists[dist_idx].rank_box(rank);
    (0..b.volume())
        .map(|i| C64::new(i as f64 * 0.01, -(i as f64) * 0.02))
        .collect()
}

/// Runs `rounds` forward+inverse pairs both ways and asserts exact equality
/// of per-rank completion times and per-rank MPI/kernel traces.
fn check_consistency(
    machine: MachineSpec,
    n: [usize; 3],
    nranks: usize,
    opts: FftOptions,
    wopts: WorldOpts,
    rounds: usize,
) {
    let plan = FftPlan::build(n, nranks, opts);

    // Functional.
    let world = World::new(machine.clone(), nranks, wopts.clone());
    let functional: Vec<(Vec<SimTime>, Vec<Trace>)> = {
        let out = world.run(|rank| {
            let comm = Comm::world(rank);
            let bound = bind(&plan, rank, &comm);
            let mut ctx = ExecCtx::new();
            let mut per_round = Vec::new();
            for _ in 0..rounds {
                let mut data = vec![field(&plan, 0, rank.rank()); plan.opts.batch];
                let f = execute(
                    &plan,
                    &bound,
                    &mut ctx,
                    rank,
                    &comm,
                    &mut data,
                    Direction::Forward,
                );
                let i = execute(
                    &plan,
                    &bound,
                    &mut ctx,
                    rank,
                    &comm,
                    &mut data,
                    Direction::Inverse,
                );
                per_round.push((f.total, f.trace, i.total, i.trace));
            }
            per_round
        });
        // Transpose to per-round (totals per rank, traces per rank).
        (0..rounds)
            .flat_map(|round| {
                let fwd: (Vec<SimTime>, Vec<Trace>) = (
                    out.iter().map(|r| r[round].0).collect(),
                    out.iter().map(|r| r[round].1.clone()).collect(),
                );
                let inv: (Vec<SimTime>, Vec<Trace>) = (
                    out.iter().map(|r| r[round].2).collect(),
                    out.iter().map(|r| r[round].3.clone()).collect(),
                );
                [fwd, inv]
            })
            .collect()
    };

    // Analytic.
    let dopts = DryRunOpts {
        gpu_aware: wopts.gpu_aware,
        distro: wopts.distro,
        noise_amplitude: wopts.noise_amplitude,
        seed: wopts.seed,
        compute_slowdown: wopts.compute_slowdown.clone(),
        ..DryRunOpts::default()
    };
    let mut runner = DryRunner::new(&plan, &machine, dopts);
    for (round, (f_totals, f_traces)) in functional.iter().enumerate() {
        let dir = if round % 2 == 0 {
            Direction::Forward
        } else {
            Direction::Inverse
        };
        let report = runner.run(dir);
        assert_eq!(
            report.per_rank_total, *f_totals,
            "per-rank totals diverge at transform {round} ({dir:?})"
        );
        for (r, (ft, dt)) in f_traces.iter().zip(&report.traces).enumerate() {
            assert_eq!(
                ft.events, dt.events,
                "trace diverges at transform {round}, rank {r}"
            );
        }
    }
}

fn summit_opts() -> WorldOpts {
    WorldOpts::default()
}

#[test]
fn pencils_alltoallv_consistent() {
    check_consistency(
        MachineSpec::summit(),
        [8, 8, 8],
        12,
        FftOptions::default(),
        summit_opts(),
        2,
    );
}

#[test]
fn padded_alltoall_consistent() {
    check_consistency(
        MachineSpec::summit(),
        [10, 9, 8],
        12,
        FftOptions {
            backend: CommBackend::AllToAll,
            ..FftOptions::default()
        },
        summit_opts(),
        1,
    );
}

#[test]
fn alltoallw_consistent_on_both_distros() {
    for distro in [MpiDistro::SpectrumMpi, MpiDistro::MvapichGdr] {
        check_consistency(
            MachineSpec::summit(),
            [8, 8, 8],
            6,
            FftOptions {
                backend: CommBackend::AllToAllW,
                ..FftOptions::default()
            },
            WorldOpts {
                distro,
                ..WorldOpts::default()
            },
            1,
        );
    }
}

#[test]
fn p2p_flavors_consistent() {
    for backend in [CommBackend::P2p, CommBackend::P2pBlocking] {
        check_consistency(
            MachineSpec::summit(),
            [8, 8, 8],
            12,
            FftOptions {
                backend,
                ..FftOptions::default()
            },
            summit_opts(),
            1,
        );
    }
}

#[test]
fn no_gpu_aware_consistent() {
    check_consistency(
        MachineSpec::summit(),
        [8, 8, 8],
        12,
        FftOptions::default(),
        WorldOpts {
            gpu_aware: false,
            ..WorldOpts::default()
        },
        1,
    );
}

#[test]
fn slabs_consistent() {
    check_consistency(
        MachineSpec::summit(),
        [8, 8, 8],
        8,
        FftOptions {
            decomp: Decomp::Slabs,
            ..FftOptions::default()
        },
        summit_opts(),
        1,
    );
}

#[test]
fn matching_io_consistent() {
    check_consistency(
        MachineSpec::summit(),
        [8, 8, 8],
        6,
        FftOptions {
            io: IoLayout::Matching,
            ..FftOptions::default()
        },
        summit_opts(),
        1,
    );
}

#[test]
fn batched_pipeline_consistent() {
    check_consistency(
        MachineSpec::spock(),
        [8, 8, 8],
        8,
        FftOptions {
            batch: 6,
            pipeline_chunks: 3,
            ..FftOptions::default()
        },
        summit_opts(),
        1,
    );
}

#[test]
fn shrink_consistent() {
    check_consistency(
        MachineSpec::summit(),
        [8, 8, 8],
        12,
        FftOptions {
            shrink_to: Some(4),
            ..FftOptions::default()
        },
        summit_opts(),
        1,
    );
}

#[test]
fn jittered_runs_consistent() {
    check_consistency(
        MachineSpec::summit(),
        [8, 8, 8],
        12,
        FftOptions::default(),
        WorldOpts {
            noise_amplitude: 0.04,
            seed: 1234,
            ..WorldOpts::default()
        },
        2,
    );
}

#[test]
fn straggler_injection_consistent() {
    // Failure injection: rank 3's GPU runs 5x slower. Both executors must
    // agree on the (much later) completion times.
    check_consistency(
        MachineSpec::summit(),
        [8, 8, 8],
        12,
        FftOptions::default(),
        WorldOpts {
            compute_slowdown: vec![(3, 5.0)],
            ..WorldOpts::default()
        },
        2,
    );
}

#[test]
fn chunked_reshapes_consistent() {
    // The pipelined reshape path (ISSUE 7): 8 ranks with brick I/O put a
    // group of 8 in the boundary reshapes (chunked) next to pencil-stage
    // groups of 2 (monolithic) — both executors must agree event-by-event
    // on the mixed schedule, for every partitionable backend.
    for backend in [
        CommBackend::AllToAllV,
        CommBackend::P2p,
        CommBackend::P2pBlocking,
    ] {
        check_consistency(
            MachineSpec::summit(),
            [8, 8, 8],
            8,
            FftOptions {
                backend,
                reshape_chunks: 4,
                ..FftOptions::default()
            },
            summit_opts(),
            2,
        );
    }
}

#[test]
fn chunked_reshapes_consistent_under_jitter_and_stragglers() {
    // Chunk arrival order reshuffles under per-message jitter and a slow
    // GPU; the partitioned walker and the functional exchange must still
    // agree exactly.
    check_consistency(
        MachineSpec::summit(),
        [8, 8, 8],
        8,
        FftOptions {
            reshape_chunks: 7,
            ..FftOptions::default()
        },
        WorldOpts {
            noise_amplitude: 0.04,
            seed: 77,
            compute_slowdown: vec![(2, 3.0)],
            ..WorldOpts::default()
        },
        2,
    );
}

#[test]
fn chunked_padded_alltoall_consistent() {
    // ISSUE 9: the padded AllToAll backend chunks via the partitioned
    // walker with whole padded blocks per chunk. Uneven extents force
    // real padding; both executors must agree event-by-event, including
    // on the transform-ahead butterfly chunks.
    check_consistency(
        MachineSpec::summit(),
        [10, 9, 8],
        8,
        FftOptions {
            backend: CommBackend::AllToAll,
            reshape_chunks: 4,
            ..FftOptions::default()
        },
        summit_opts(),
        2,
    );
}

#[test]
fn chunked_alltoallw_consistent_on_both_distros() {
    // The sub-array AllToAllW backend has no pack/unpack kernels; the
    // partitioned walker charges its per-chunk datatype exchanges
    // directly. Both MPI distro models must agree with the functional
    // executor.
    for distro in [MpiDistro::SpectrumMpi, MpiDistro::MvapichGdr] {
        check_consistency(
            MachineSpec::summit(),
            [8, 8, 8],
            8,
            FftOptions {
                backend: CommBackend::AllToAllW,
                reshape_chunks: 4,
                ..FftOptions::default()
            },
            WorldOpts {
                distro,
                ..WorldOpts::default()
            },
            2,
        );
    }
}

#[test]
fn chunked_padded_backends_consistent_under_jitter_and_stragglers() {
    // Chunk arrival order reshuffles under per-message jitter and a slow
    // GPU; the padded partitioned walkers must still agree exactly.
    for backend in [CommBackend::AllToAll, CommBackend::AllToAllW] {
        check_consistency(
            MachineSpec::summit(),
            [8, 8, 8],
            8,
            FftOptions {
                backend,
                reshape_chunks: 7,
                ..FftOptions::default()
            },
            WorldOpts {
                noise_amplitude: 0.04,
                seed: 77,
                compute_slowdown: vec![(2, 3.0)],
                ..WorldOpts::default()
            },
            2,
        );
    }
}

#[test]
fn auto_chunking_consistent() {
    // `reshape_chunks: 0` = auto: the model-driven k must be derived
    // identically (group-level aggregates only) by both executors.
    for backend in [
        CommBackend::AllToAllV,
        CommBackend::AllToAll,
        CommBackend::AllToAllW,
        CommBackend::P2p,
    ] {
        check_consistency(
            MachineSpec::summit(),
            [8, 8, 8],
            8,
            FftOptions {
                backend,
                reshape_chunks: 0,
                ..FftOptions::default()
            },
            summit_opts(),
            2,
        );
    }
}

#[test]
fn chunked_batched_pipeline_consistent() {
    // Chunked reshapes compose with the batched transform pipeline.
    check_consistency(
        MachineSpec::spock(),
        [8, 8, 8],
        8,
        FftOptions {
            batch: 4,
            pipeline_chunks: 2,
            reshape_chunks: 3,
            ..FftOptions::default()
        },
        summit_opts(),
        1,
    );
}

#[test]
fn batched_alltoallw_consistent() {
    // Batched Alltoallw coalesces items per destination like every other
    // backend; with no pack/unpack kernel bracketing the exchange, the
    // later pipeline chunk gates on data alone (monolithic) or on the GPU
    // too (chunked) — both executors must agree on either.
    for reshape_chunks in [1, 4] {
        check_consistency(
            MachineSpec::summit(),
            [8, 8, 8],
            8,
            FftOptions {
                backend: CommBackend::AllToAllW,
                batch: 3,
                pipeline_chunks: 2,
                reshape_chunks,
                ..FftOptions::default()
            },
            summit_opts(),
            1,
        );
    }
}

#[test]
fn contiguous_fft_mode_consistent() {
    check_consistency(
        MachineSpec::summit(),
        [8, 8, 8],
        12,
        FftOptions {
            contiguous_fft: true,
            backend: CommBackend::AllToAll,
            ..FftOptions::default()
        },
        summit_opts(),
        2,
    );
}
