//! Chunked-reshape overlap as measured by the profiler (ISSUE 7).
//!
//! The acceptance check of the pipelined reshape path: on an 8-rank
//! pencil workload, attribution must show strictly less recv-wait + idle
//! with chunking on than off — the overlap converts exchange-barrier
//! waiting into useful pack/unpack time — while every rank's phases still
//! tile the window exactly despite the now-overlapping spans.

use distfft::dryrun::{DryRunOpts, DryRunner};
use distfft::plan::{CommBackend, FftOptions, FftPlan};
use fftkern::Direction;
use fftprof::{Phase, Profile};
use simgrid::MachineSpec;

const RANKS: usize = 8;

/// Dry-runs the 8-rank pencil workload at one chunk setting and profiles
/// the second (warm) transform.
fn profiled(chunks: usize) -> Profile {
    let machine = MachineSpec::summit();
    let opts = FftOptions {
        backend: CommBackend::AllToAllV,
        reshape_chunks: chunks,
        ..FftOptions::default()
    };
    let plan = FftPlan::build([32, 32, 32], RANKS, opts);
    let mut runner = DryRunner::new(&plan, &machine, DryRunOpts::default());
    runner.run(Direction::Forward);
    let rep = runner.run(Direction::Forward);
    let label = match chunks {
        0 => "auto",
        1 => "monolithic",
        _ => "chunked",
    };
    Profile::build(label, &plan, &machine, true, &rep.traces)
}

/// Total recv-wait + idle over all ranks: the stall budget the pipelined
/// path exists to shrink.
fn stall_ns(p: &Profile) -> u64 {
    let t = p.phases.totals();
    t.get(Phase::RecvWait) + t.get(Phase::Idle)
}

#[test]
fn chunking_reduces_recv_wait_plus_idle() {
    let off = profiled(1);
    let on = profiled(8);
    assert!(
        stall_ns(&on) < stall_ns(&off),
        "chunking must reduce recv-wait + idle: on={} ns, off={} ns",
        stall_ns(&on),
        stall_ns(&off)
    );
    assert!(
        on.makespan_ns() <= off.makespan_ns(),
        "chunking must not lengthen this workload: on={} ns, off={} ns",
        on.makespan_ns(),
        off.makespan_ns()
    );
}

#[test]
fn transform_ahead_hides_butterflies_under_the_wire() {
    // ISSUE 9 A/B: with chunking on, the next axis' butterflies start as
    // chunks land, so (a) the profiler books a nonzero compute-under-wire
    // overlap account, (b) recv-wait shrinks — waiting became compute —
    // and (c) the makespan strictly drops vs the monolithic exchange
    // (PR 7's overlap alone was nearly makespan-neutral here).
    let off = profiled(1);
    let on = profiled(8);
    let t_off = off.phases.totals();
    let t_on = on.phases.totals();
    assert_eq!(
        t_off.overlap_ns, 0,
        "monolithic exchanges have no compute under the wire"
    );
    assert!(
        t_on.overlap_ns > 0,
        "transform-ahead must hide butterflies under in-flight exchanges"
    );
    assert!(
        t_on.get(Phase::RecvWait) < t_off.get(Phase::RecvWait),
        "recv-wait must shrink: on={} ns, off={} ns",
        t_on.get(Phase::RecvWait),
        t_off.get(Phase::RecvWait)
    );
    assert!(
        on.makespan_ns() < off.makespan_ns(),
        "transform-ahead must shorten the makespan: on={} ns, off={} ns",
        on.makespan_ns(),
        off.makespan_ns()
    );
    // The overlap account is a side ledger, never tiling: per rank it is
    // bounded by the compute entry.
    for (r, bd) in on.phases.per_rank.iter().enumerate() {
        assert!(
            bd.overlap_ns <= bd.get(Phase::Compute),
            "rank {r}: overlap {} exceeds compute {}",
            bd.overlap_ns,
            bd.get(Phase::Compute)
        );
    }
}

#[test]
fn auto_chunking_profiles_like_a_tuned_fixed_k() {
    // `reshape_chunks: 0` is the auto sentinel: the model-picked k must
    // land within a whisker of the best fixed setting on this workload.
    let auto = profiled(0);
    let best = (1..=7)
        .map(|k| profiled(k).makespan_ns())
        .min()
        .unwrap_or(u64::MAX);
    let auto_ns = auto.makespan_ns();
    assert!(
        auto_ns as f64 <= best as f64 * 1.05,
        "auto ({auto_ns} ns) must be within 5% of the best fixed k ({best} ns)"
    );
}

#[test]
fn overlap_protocol_times_are_pinned() {
    // Absolute pin on the simulated clock of the two overlap paths: the
    // paper's measurement protocol (2 warm-up + 4 timed transforms) on the
    // 8-rank testbox pencil, monolithic vs chunked. Exact schedule-walker
    // outputs, so any change to the overlap model, the walkers or the
    // auto-k selection moves a literal here.
    let machine = MachineSpec::testbox(2);
    let sim_ns = |n: usize, chunks: usize| {
        let opts = FftOptions {
            reshape_chunks: chunks,
            ..FftOptions::default()
        };
        let plan = FftPlan::build([n, n, n], RANKS, opts);
        let mut runner = DryRunner::new(&plan, &machine, DryRunOpts::default());
        runner.timed_average(2, 4).as_ns()
    };
    // (extent, chunked setting, monolithic ns, chunked ns): per-peer
    // chunking at 64³ (pack/unpack hidden behind the wire), auto-k with
    // transform-ahead at 128³ (next-axis butterflies hidden too).
    for (n, chunks, mono_ns, chunked_ns) in [
        (64, 8, 1_116_726, 1_092_732),
        (128, 0, 8_278_108, 8_120_999),
    ] {
        let (mono, chunked) = (sim_ns(n, 1), sim_ns(n, chunks));
        assert_eq!(mono, mono_ns, "{n}³ monolithic");
        assert_eq!(chunked, chunked_ns, "{n}³ reshape_chunks = {chunks}");
        assert!(chunked <= mono, "{n}³: overlap must not lengthen the run");
    }
}

#[test]
fn overlapping_chunk_spans_still_tile_the_window() {
    // The integer-nanosecond sweep must keep the per-rank partition exact
    // even when MPI-call and kernel spans overlap on one rank.
    let p = profiled(8);
    let makespan = p.makespan_ns();
    assert!(makespan > 0);
    for (r, bd) in p.phases.per_rank.iter().enumerate() {
        assert_eq!(
            bd.total_ns(),
            makespan,
            "rank {r} phases must sum to the window under overlap"
        );
    }
}
