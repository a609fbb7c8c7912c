//! SIMD × scalar × naive-DFT cross-checks (ISSUE 6 tentpole).
//!
//! The vector kernels in `fftkern::simd` claim **bit-identity** with the
//! scalar Stockham stage bodies — not "close", identical, because every
//! complex element sees the exact scalar operation sequence (lanes are
//! elementwise, the complex multiply differs only by a commutative IEEE
//! addition, rotations are sign flips). This suite holds them to it with
//! `to_bits` comparisons across every tier the host supports, over packed
//! and strided layouts, pow2 / smooth / Bluestein lengths, both
//! directions — and cross-checks the values against the O(N²) DFT oracle
//! so "all tiers agree on garbage" cannot pass.
//!
//! `force_tier` is process-global state. Integration-test files run in
//! their own process, so forcing tiers here cannot perturb other suites,
//! but the `#[test]` fns in *this* file share the process and run on
//! parallel threads — every test serializes on [`TIER_LOCK`] and restores
//! auto dispatch before releasing it.

use fftkern::dft::dft_1d;
use fftkern::plan::{Layout, Plan1d};
use fftkern::simd::{self, SimdTier};
use fftkern::{Direction, StockhamPlan, C64};
use std::sync::Mutex;

/// Serializes every test in this file around the process-global tier.
static TIER_LOCK: Mutex<()> = Mutex::new(());

/// All tiers this host can actually run, scalar first.
fn available_tiers() -> Vec<SimdTier> {
    [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512]
        .into_iter()
        .filter(|&t| simd::tier_available(t))
        .collect()
}

/// Runs `f` with the dispatcher pinned to `tier`, restoring auto after.
fn with_tier<R>(tier: SimdTier, f: impl FnOnce() -> R) -> R {
    simd::force_tier(Some(tier));
    let r = f();
    simd::force_tier(None);
    r
}

/// Deterministic non-trivial signal (distinct per batch line).
fn signal(len: usize) -> Vec<C64> {
    (0..len)
        .map(|i| {
            let t = i as f64;
            C64::new((0.41 * t).sin() - 0.2 * (2.3 * t).cos(), (0.59 * t).cos())
        })
        .collect()
}

/// Exact bit pattern of a complex buffer.
fn bits(data: &[C64]) -> Vec<(u64, u64)> {
    data.iter()
        .map(|c| (c.re.to_bits(), c.im.to_bits()))
        .collect()
}

fn max_abs_diff(a: &[C64], b: &[C64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = *x - *y;
            d.re.abs().max(d.im.abs())
        })
        .fold(0.0, f64::max)
}

/// Every available tier's `StockhamPlan` output must equal the scalar
/// tier's, bit for bit, in both directions, for each size.
fn assert_stockham_tiers_bitwise_identical(sizes: impl Iterator<Item = usize>) {
    let tiers = available_tiers();
    for n in sizes {
        let plan = StockhamPlan::new(n);
        let x = signal(n);
        for dir in [Direction::Forward, Direction::Inverse] {
            let reference = with_tier(SimdTier::Scalar, || {
                let mut d = x.clone();
                plan.execute(&mut d, dir);
                d
            });
            for &tier in &tiers {
                let got = with_tier(tier, || {
                    let mut d = x.clone();
                    plan.execute(&mut d, dir);
                    d
                });
                assert_eq!(
                    bits(&got),
                    bits(&reference),
                    "tier {} diverges from scalar at n={n} {dir:?}",
                    tier.name()
                );
            }
        }
    }
}

#[test]
fn stockham_bitwise_identical_across_tiers_all_pow2() {
    // Every pow2 vector kernel on both tiers: 16 = 8·2, 32 = 8·4 and
    // 64 = 8·8 run radix 2, 4 and 8 at s = 8, and 64's radix-8 `s == 1`
    // first stage has m = 8.
    let _g = TIER_LOCK.lock().unwrap();
    assert_stockham_tiers_bitwise_identical((1..=13).map(|log| 1usize << log));
}

#[test]
fn stockham_bitwise_identical_across_tiers_smooth_lengths() {
    // Non-pow2 smooth lengths put odd `s` and odd `m` in front of the
    // dispatcher: 24 = 8·3 and 40 = 8·5 have a radix-8 first stage with
    // m = 3 / 5 (no full vector of butterflies), 45 = 3·3·5 never has an
    // even `s`, 60 = 4·3·5 and 480 = 8·4·3·5 run the vector radix-3/5
    // kernels at s = 4, 12 and 32, 96. Every smooth n ≤ 512 rides along.
    let _g = TIER_LOCK.lock().unwrap();
    assert_stockham_tiers_bitwise_identical(
        (3..=512usize)
            .filter(|&n| fftkern::is_smooth(n) && !n.is_power_of_two())
            .chain([1000, 1920, 2401, 3125]),
    );
}

#[test]
fn simd_matches_naive_dft_not_just_itself() {
    // Bit-identity across tiers alone would also pass if every tier were
    // wrong the same way; anchor the values to the O(N²) oracle.
    let _g = TIER_LOCK.lock().unwrap();
    for &tier in &available_tiers() {
        for n in [8usize, 64, 512, 24, 40, 45, 60, 480] {
            let plan = StockhamPlan::new(n);
            let x = signal(n);
            let fast = with_tier(tier, || {
                let mut d = x.clone();
                plan.execute(&mut d, Direction::Forward);
                d
            });
            let slow = dft_1d(&x, Direction::Forward);
            assert!(
                max_abs_diff(&fast, &slow) < 1e-8 * n as f64,
                "tier {} vs DFT at n={n}",
                tier.name()
            );
        }
    }
}

#[test]
fn plan1d_bitwise_identical_across_tiers_layouts_and_algorithms() {
    // End-to-end through Plan1d: pow2 and smooth sizes (Stockham per line
    // on packed rows, lane-interleaved panels on strided batches) and
    // Bluestein primes (whose pow2 convolution rides the Stockham engine).
    // On the strided layout the batch sets the panel widths: 64 is full
    // panels, 70 and 131 leave ragged tails, 1–5 are narrower than a vector.
    let _g = TIER_LOCK.lock().unwrap();
    let tiers = available_tiers();
    for n in [
        16usize, 128, 512, 1024, 24, 40, 45, 49, 60, 250, 360, 480, 499, 97, 13,
    ] {
        for batch in [1usize, 2, 3, 5, 16, 64, 70, 131] {
            for layout in [Layout::contiguous(n), Layout::strided(batch)] {
                let plan = Plan1d::with_layout(n, batch, layout, layout);
                let x = signal(plan.required_input_len());
                for dir in [Direction::Forward, Direction::Inverse] {
                    let reference = with_tier(SimdTier::Scalar, || {
                        let mut d = x.clone();
                        plan.execute_inplace(&mut d, dir);
                        d
                    });
                    for &tier in &tiers {
                        let got = with_tier(tier, || {
                            let mut d = x.clone();
                            plan.execute_inplace(&mut d, dir);
                            d
                        });
                        assert_eq!(
                            bits(&got),
                            bits(&reference),
                            "tier {} diverges at n={n} batch={batch} \
                             stride={} {dir:?}",
                            tier.name(),
                            layout.stride
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn packed_batches_match_the_scalar_lone_line_engine_on_every_tier() {
    // Packed rows under 64 points ride the lane-interleaved panel, longer
    // ones the per-line loop: on every tier, in place, out of place and as
    // two line ranges (upper half first), each batch must equal its lines
    // transformed one at a time on the scalar tier.
    let _g = TIER_LOCK.lock().unwrap();
    let tiers = available_tiers();
    let sizes = (1..=128usize)
        .filter(|&n| fftkern::is_smooth(n))
        .chain([13, 97, 250, 480, 512]);
    for n in sizes {
        let one = Plan1d::contiguous(n, 1);
        for batch in [1usize, 2, 3, 5, 64, 70, 131] {
            let plan = Plan1d::contiguous(n, batch);
            let x = signal(n * batch);
            for dir in [Direction::Forward, Direction::Inverse] {
                let want = with_tier(SimdTier::Scalar, || {
                    let mut d = x.clone();
                    d.chunks_exact_mut(n)
                        .for_each(|line| one.execute_inplace(line, dir));
                    bits(&d)
                });
                for &tier in &tiers {
                    let what = format!("tier {} n={n} batch={batch} {dir:?}", tier.name());
                    let (inplace, out, ranged) = with_tier(tier, || {
                        let mut scratch = vec![C64::ZERO; plan.scratch_elems()];
                        let mut inplace = x.clone();
                        plan.execute_inplace_scratch(&mut inplace, dir, &mut scratch);
                        let mut out = vec![C64::ZERO; n * batch];
                        plan.execute_scratch(&x, &mut out, dir, &mut scratch);
                        let mut ranged = x.clone();
                        for (lo, hi) in [(batch / 2, batch), (0, batch / 2)] {
                            plan.execute_lines_inplace_scratch(
                                &mut ranged,
                                dir,
                                &mut scratch,
                                lo,
                                hi,
                            );
                        }
                        (inplace, out, ranged)
                    });
                    assert_eq!(bits(&inplace), want, "in place: {what}");
                    assert_eq!(bits(&out), want, "out of place: {what}");
                    assert_eq!(bits(&ranged), want, "line ranges: {what}");
                }
            }
        }
    }
}

#[test]
fn roundtrip_under_each_tier() {
    let _g = TIER_LOCK.lock().unwrap();
    for &tier in &available_tiers() {
        for n in [32usize, 512, 4096] {
            let plan = StockhamPlan::new(n);
            let x = signal(n);
            let y = with_tier(tier, || {
                let mut d = x.clone();
                plan.execute(&mut d, Direction::Forward);
                plan.execute(&mut d, Direction::Inverse);
                d
            });
            let expected: Vec<C64> = x.iter().map(|v| v.scale(n as f64)).collect();
            assert!(
                max_abs_diff(&y, &expected) < 1e-9 * n as f64,
                "tier {} n={n}",
                tier.name()
            );
        }
    }
}
