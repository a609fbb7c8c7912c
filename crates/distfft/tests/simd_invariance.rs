//! SIMD-tier invariance of the distributed executor (ISSUE 6).
//!
//! The `fftkern::simd` dispatcher claims tier choice is unobservable in
//! results: scalar, AVX2 and AVX-512 butterflies are bit-identical, so the
//! functional executor must produce bit-identical distributed data — and,
//! with `--features sanitize`, identical replay digests — across
//! `FFT_SIMD=off/avx2/avx512` (tiers the host lacks are skipped) crossed
//! with executor thread counts {1, 4}, over pow2, smooth non-pow2, and
//! Bluestein per-axis lengths in both packed and strided local-FFT modes.
//!
//! Tier forcing is process-global; all tests in this file serialize on
//! [`TIER_LOCK`] and restore auto dispatch before releasing it.

use distfft::boxes::Box3;
use distfft::exec::{bind, execute, ExecCtx};
use distfft::plan::{CommBackend, FftOptions, FftPlan};
use distfft::Decomp;
use fftkern::simd::{self, SimdTier};
use fftkern::{Direction, C64};
use mpisim::comm::{Comm, World, WorldOpts};
use simgrid::{MachineSpec, SimTime};
use std::sync::Mutex;

static TIER_LOCK: Mutex<()> = Mutex::new(());

fn available_tiers() -> Vec<SimdTier> {
    [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512]
        .into_iter()
        .filter(|&t| simd::tier_available(t))
        .collect()
}

/// The grids under test: pow2 axes (Stockham 8/4/2 stages), smooth non-pow2
/// axes (Stockham with radix-3/5/7 stages: 12 = 4·3, 10 = 2·5, 14 = 2·7,
/// so per-stage tier dispatch sees odd `m` and non-pow2 `s`), and a prime
/// axis (Bluestein, whose chirp convolution is a pow2 Stockham transform).
/// Axis 2 runs packed, axes 0/1 strided — both local-FFT modes per grid.
const GRIDS: [[usize; 3]; 3] = [[16, 16, 8], [12, 10, 14], [13, 16, 8]];

/// Distributed forward+inverse under a forced tier; returns the final
/// per-rank data bits and completion times (and, under `sanitize`, feeds
/// the digest test below through the same harness).
#[allow(clippy::type_complexity)]
fn run(n: [usize; 3], tier: SimdTier, threads: usize) -> (Vec<Vec<(u64, u64)>>, Vec<SimTime>) {
    simd::force_tier(Some(tier));
    let ranks = 4;
    let opts = FftOptions {
        decomp: Decomp::Pencils,
        backend: CommBackend::AllToAllV,
        ..FftOptions::default()
    };
    let plan = FftPlan::build(n, ranks, opts);
    let world = World::new(MachineSpec::testbox(2), ranks, WorldOpts::default());
    let whole = Box3::whole(n);
    let global: Vec<C64> = (0..n[0] * n[1] * n[2])
        .map(|i| C64::new((i as f64 * 0.43).sin(), (i as f64 * 0.29).cos()))
        .collect();
    let plan_ref = &plan;
    let per_rank = world.run(move |rank| {
        let comm = Comm::world(rank);
        let bound = bind(plan_ref, rank, &comm);
        let mut ctx = ExecCtx::with_threads(threads);
        let b = plan_ref.dists[0].rank_box(rank.rank());
        let mut data = vec![whole.extract(&global, b)];
        let _ = execute(
            plan_ref,
            &bound,
            &mut ctx,
            rank,
            &comm,
            &mut data,
            Direction::Forward,
        );
        let rep = execute(
            plan_ref,
            &bound,
            &mut ctx,
            rank,
            &comm,
            &mut data,
            Direction::Inverse,
        );
        let bits: Vec<(u64, u64)> = data[0]
            .iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect();
        (bits, rep.total)
    });
    simd::force_tier(None);
    per_rank.into_iter().unzip()
}

#[test]
fn distributed_output_bit_identical_across_tiers_and_threads() {
    let _g = TIER_LOCK.lock().unwrap();
    let tiers = available_tiers();
    for n in GRIDS {
        let (ref_bits, ref_times) = run(n, SimdTier::Scalar, 1);
        for &tier in &tiers {
            for threads in [1usize, 4] {
                let (bits, times) = run(n, tier, threads);
                assert_eq!(
                    bits,
                    ref_bits,
                    "data diverged: n={n:?} tier={} threads={threads}",
                    tier.name()
                );
                assert_eq!(
                    times,
                    ref_times,
                    "simulated times diverged: n={n:?} tier={} threads={threads}",
                    tier.name()
                );
            }
        }
    }
}

#[cfg(feature = "sanitize")]
mod digests {
    use super::*;
    use distfft::sanitize::{full_digest, timing_digest};
    use distfft::trace::Trace;

    /// The sanitize-suite world (jitter on, 4 ranks, [16,16,8] pencils)
    /// under a forced tier: per-rank (completion, trace) + pool stats.
    fn run_digest(
        tier: SimdTier,
        threads: usize,
    ) -> (Vec<(SimTime, Trace)>, Vec<distfft::exec::PoolStats>) {
        simd::force_tier(Some(tier));
        let n = [16usize, 16, 8];
        let ranks = 4;
        let opts = FftOptions {
            decomp: Decomp::Pencils,
            backend: CommBackend::AllToAllV,
            ..FftOptions::default()
        };
        let plan = FftPlan::build(n, ranks, opts);
        let world_opts = WorldOpts {
            noise_amplitude: 0.05,
            seed: 0xC0FFEE,
            ..WorldOpts::default()
        };
        let world = World::new(MachineSpec::testbox(2), ranks, world_opts);
        let whole = Box3::whole(n);
        let global: Vec<C64> = (0..n[0] * n[1] * n[2])
            .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.61).cos()))
            .collect();
        let plan_ref = &plan;
        let per_rank = world.run(move |rank| {
            let comm = Comm::world(rank);
            let bound = bind(plan_ref, rank, &comm);
            let mut ctx = ExecCtx::with_threads(threads);
            let b = plan_ref.dists[0].rank_box(rank.rank());
            let mut data = vec![whole.extract(&global, b)];
            let fwd = execute(
                plan_ref,
                &bound,
                &mut ctx,
                rank,
                &comm,
                &mut data,
                Direction::Forward,
            );
            let inv = execute(
                plan_ref,
                &bound,
                &mut ctx,
                rank,
                &comm,
                &mut data,
                Direction::Inverse,
            );
            let mut trace = fwd.trace;
            trace.events.extend(inv.trace.events);
            ((inv.total, trace), ctx.pool_stats())
        });
        simd::force_tier(None);
        per_rank.into_iter().unzip()
    }

    #[test]
    fn replay_digests_invariant_across_simd_tiers() {
        // The butterfly tier is a pure compute-speed knob: simulated
        // timing comes from the kernel model and the schedule walkers,
        // never from the data values, so both digests must be identical
        // across every tier × thread-count combination.
        let _g = TIER_LOCK.lock().unwrap();
        let (r_ref, p_ref) = run_digest(SimdTier::Scalar, 1);
        let t_ref = timing_digest(&r_ref);
        for &tier in &available_tiers() {
            for threads in [1usize, 4] {
                let (r, p) = run_digest(tier, threads);
                assert_eq!(
                    t_ref,
                    timing_digest(&r),
                    "timing digest drifted: tier={} threads={threads}",
                    tier.name()
                );
                if threads == 1 {
                    assert_eq!(
                        full_digest(&r_ref, &p_ref),
                        full_digest(&r, &p),
                        "full digest drifted: tier={} threads=1",
                        tier.name()
                    );
                }
            }
        }
    }
}
