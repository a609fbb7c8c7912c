//! Property tests over the profiler's structural invariants, swept across
//! decompositions, backends, GPU-awareness and rank counts — the
//! acceptance criteria of the profiler layer:
//!
//! 1. every rank's phase attribution sums *exactly* to the trace makespan;
//! 2. the critical path's busy length never exceeds the makespan, and
//!    equals it for a serial one-rank run;
//! 3. a run diffed against itself is zero everywhere;
//! 4. on a pencil multi-node run the critical path names at least one
//!    communication phase;
//! 5. the alltoall-vs-p2p differential reproduces the sign of the paper's
//!    Fig. 5 winner at both ends of the ladder.

use distfft::dryrun::{DryRunOpts, DryRunner};
use distfft::plan::{CommBackend, FftOptions, FftPlan};
use distfft::Decomp;
use fftkern::Direction;
use fftprof::{profile_config, DiffReport, Phase, Profile};
use simgrid::MachineSpec;

/// Dry-runs one configuration and profiles the measured transform.
fn profiled(
    n: [usize; 3],
    ranks: usize,
    decomp: Decomp,
    backend: CommBackend,
    gpu_aware: bool,
) -> Profile {
    let machine = MachineSpec::summit();
    let opts = FftOptions {
        decomp,
        backend,
        ..FftOptions::default()
    };
    let plan = FftPlan::build(n, ranks, opts);
    let mut runner = DryRunner::new(
        &plan,
        &machine,
        DryRunOpts {
            gpu_aware,
            ..DryRunOpts::default()
        },
    );
    runner.run(Direction::Forward);
    let rep = runner.run(Direction::Forward);
    Profile::build("test", &plan, &machine, gpu_aware, &rep.traces)
}

/// The configuration sweep the invariants are checked over: both
/// decompositions, the three interesting backends, both transfer modes,
/// one to multiple nodes.
fn sweep() -> Vec<Profile> {
    let mut out = Vec::new();
    for &(ranks, decomp) in &[
        (1, Decomp::Pencils),
        (6, Decomp::Slabs),
        (6, Decomp::Pencils),
        (12, Decomp::Pencils),
        (24, Decomp::Slabs),
        (24, Decomp::Pencils),
    ] {
        for &backend in &[
            CommBackend::AllToAll,
            CommBackend::AllToAllV,
            CommBackend::P2p,
        ] {
            for &aware in &[true, false] {
                out.push(profiled([32, 32, 32], ranks, decomp, backend, aware));
            }
        }
    }
    out
}

#[test]
fn phase_sums_equal_makespan_for_every_rank_in_every_config() {
    for p in sweep() {
        let makespan = p.makespan_ns();
        assert!(makespan > 0, "{}/{}", p.decomp, p.routine);
        for (r, bd) in p.phases.per_rank.iter().enumerate() {
            assert_eq!(
                bd.total_ns(),
                makespan,
                "rank {r} of {}/{}/{} aware={} must tile the window",
                p.nranks,
                p.decomp,
                p.routine,
                p.gpu_aware
            );
        }
    }
}

#[test]
fn critical_path_is_bounded_by_the_makespan() {
    for p in sweep() {
        assert!(p.critpath.busy_ns > 0);
        assert!(
            p.critpath.busy_ns + p.critpath.idle_ns <= p.makespan_ns(),
            "path {} + idle {} exceeds makespan {} for {}/{}",
            p.critpath.busy_ns,
            p.critpath.idle_ns,
            p.makespan_ns(),
            p.decomp,
            p.routine
        );
    }
}

#[test]
fn serial_run_is_fully_critical() {
    let p = profiled(
        [32, 32, 32],
        1,
        Decomp::Pencils,
        CommBackend::AllToAllV,
        true,
    );
    assert_eq!(
        p.critpath.busy_ns,
        p.makespan_ns(),
        "a gap-free serial run's critical path is the whole run"
    );
    assert_eq!(p.critpath.idle_ns, 0);
}

#[test]
fn every_config_self_diffs_to_zero() {
    for p in sweep() {
        let d = DiffReport::between(&p, &p);
        assert!(
            d.is_zero(),
            "self-diff must be zero for {}/{}:\n{}",
            p.decomp,
            p.routine,
            d.render_text()
        );
    }
}

#[test]
fn pencil_multinode_critical_path_names_communication() {
    // 4 Summit nodes, pencil decomposition: the exchange-bound regime the
    // paper's breakdown figures dissect.
    let p = profiled(
        [64, 64, 64],
        24,
        Decomp::Pencils,
        CommBackend::AllToAllV,
        true,
    );
    let comm_on_path =
        p.critpath.by_phase[Phase::Send as usize] + p.critpath.by_phase[Phase::RecvWait as usize];
    assert!(
        comm_on_path > 0,
        "multi-node pencil path must include a communication phase: {:?}",
        p.critpath.by_phase
    );
    assert!(
        !p.critpath.comm_by_reshape.is_empty(),
        "communication on the path must be attributed to a reshape"
    );
    // The same run must also show link queuing somewhere (many flows share
    // each NIC).
    assert!(p.contention.total_queue_ns() > 0);
}

#[test]
fn differential_reproduces_fig5_winner_sign_at_both_ladder_ends() {
    let machine = MachineSpec::summit();
    let profile_of = |ranks: usize, backend: CommBackend| {
        profile_config(
            &format!("{ranks}r"),
            &machine,
            [64, 64, 64],
            ranks,
            FftOptions {
                decomp: Decomp::Pencils,
                backend,
                ..FftOptions::default()
            },
            true,
        )
    };
    // Small scale (1 node, 6 ranks): the paper's Fig. 5 P2P region.
    let a2a_small = profile_of(6, CommBackend::AllToAllV);
    let p2p_small = profile_of(6, CommBackend::P2p);
    let small = DiffReport::between(&a2a_small, &p2p_small);
    assert!(
        small.makespan_delta_ns() < 0,
        "at 1 node P2P must win (paper Fig. 5):\n{}",
        small.render_text()
    );
    // Large scale (64 nodes, 384 ranks): the pencils+A2A region.
    let a2a_large = profile_of(384, CommBackend::AllToAllV);
    let p2p_large = profile_of(384, CommBackend::P2p);
    let large = DiffReport::between(&a2a_large, &p2p_large);
    assert!(
        large.makespan_delta_ns() > 0,
        "at 64 nodes A2A must win (paper Fig. 5):\n{}",
        large.render_text()
    );
}

#[test]
fn collapsed_stack_totals_match_the_attribution_table() {
    let p = profiled(
        [64, 64, 64],
        24,
        Decomp::Pencils,
        CommBackend::AllToAllV,
        true,
    );
    let folded = p.to_collapsed();
    let mut rank_total = 0u64;
    let mut path_total = 0u64;
    for line in folded.lines() {
        let (stack, v) = line.rsplit_once(' ').unwrap();
        let v: u64 = v.parse().unwrap();
        if stack.contains(";rank_") {
            rank_total += v;
        } else if stack.contains(";critical-path;") {
            path_total += v;
        }
    }
    assert_eq!(rank_total, p.makespan_ns() * p.nranks as u64);
    assert_eq!(path_total, p.critpath.busy_ns + p.critpath.idle_ns);
}

#[test]
fn committed_ledger_baselines_are_exact() {
    // The two configurations the retired run ledger held baselines for
    // (fig5's 8-node winner and the 4-node 64³ snapshot), pinned to the
    // nanosecond on every host: the simulated clock has no noise to
    // tolerate.
    //
    // (n, ranks, phase rows in `PHASES` order, [makespan, model-predicted
    // comm, measured comm, total queue, critical-path busy, idle]), all ns.
    for (n, ranks, phases, scalars) in [
        (
            512,
            48,
            [
                1_327_844, 666_940, 666_940, 0, 7_529_887, 62_140_283, 16_306_757,
            ],
            [
                82_564_892,
                3_264_321,
                68_947_848,
                2_822_729_355,
                70_890_402,
                11_674_490,
            ],
        ),
        (
            64,
            24,
            [17_261, 18_608, 18_608, 0, 37_499, 472_883, 48_835],
            [598_560, 19_775, 504_557, 11_123_761, 549_781, 48_779],
        ),
    ] {
        let p = profiled(
            [n, n, n],
            ranks,
            Decomp::Pencils,
            CommBackend::AllToAllV,
            true,
        );
        assert_eq!(
            p.phases.max_over_ranks().ns,
            phases,
            "{n}^3 x {ranks} ranks: phase rows"
        );
        assert_eq!(
            [
                p.makespan_ns(),
                p.residual.predicted_comm_ns,
                p.residual.measured_comm_ns,
                p.contention.total_queue_ns(),
                p.critpath.busy_ns,
                p.critpath.idle_ns,
            ],
            scalars,
            "{n}^3 x {ranks} ranks: makespan, predicted, measured, queue, busy, idle"
        );
    }
}
