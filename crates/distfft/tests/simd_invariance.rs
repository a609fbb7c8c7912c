//! SIMD-tier invariance of the distributed executor (ISSUE 6).
//!
//! The `fftkern::simd` dispatcher claims tier choice is unobservable in
//! results: scalar, AVX2 and AVX-512 butterflies are bit-identical, and
//! simulated timing comes from the kernel model and the schedule walkers,
//! never from the data values. So the run record must be identical across
//! the scalar, AVX2 and AVX-512 tiers (tiers the host lacks are skipped) over
//! pow2, smooth non-pow2 and Bluestein per-axis lengths in both packed and
//! strided local-FFT modes.
//!
//! Tier forcing is process-global; all tests in this file serialize on
//! [`TIER_LOCK`] and restore auto dispatch before releasing it.

mod common;

use common::{jittered, run_world, RankRun, GRIDS};
use distfft::plan::{CommBackend, FftOptions};
use distfft::Decomp;
use fftkern::simd::{self, SimdTier};
use mpisim::comm::WorldOpts;
use std::sync::Mutex;

static TIER_LOCK: Mutex<()> = Mutex::new(());

fn run(n: [usize; 3], world_opts: WorldOpts, tier: SimdTier) -> Vec<RankRun> {
    let opts = FftOptions {
        decomp: Decomp::Pencils,
        backend: CommBackend::AllToAllV,
        ..FftOptions::default()
    };
    simd::force_tier(Some(tier));
    let out = run_world(n, 4, opts, world_opts);
    simd::force_tier(None);
    out
}

fn assert_tier_invariant(n: [usize; 3], world_opts: WorldOpts) {
    let _g = TIER_LOCK.lock().unwrap();
    let reference = run(n, world_opts.clone(), SimdTier::Scalar);
    for tier in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512] {
        if !simd::tier_available(tier) {
            continue;
        }
        assert_eq!(
            run(n, world_opts.clone(), tier),
            reference,
            "run record diverged: n={n:?} tier={}",
            tier.name()
        );
    }
}

#[test]
fn distributed_output_bit_identical_across_tiers() {
    for n in GRIDS {
        assert_tier_invariant(n, WorldOpts::default());
    }
}

#[test]
fn replays_invariant_across_simd_tiers() {
    assert_tier_invariant(GRIDS[0], jittered());
}
