//! Exhaustive engine-equivalence suite (ISSUE 4 satellite).
//!
//! Sweeps every power of two in {2..4096} × batch {1, 3, 16} × layout
//! {contiguous, strided} and checks that the Stockham engine, the legacy
//! radix-2 engine, and (for small sizes) the naive O(N²) DFT all agree, and
//! that forward∘inverse is the identity within `1e-9·log₂(n)` after
//! normalization. Smooth non-pow2 lengths get the same batch × layout sweep
//! against the DFT oracle.

use fftkern::dft::dft_1d;
use fftkern::plan::{Layout, Plan1d};
use fftkern::{Direction, Engine, C64};

/// Deterministic non-trivial signal (distinct per batch line).
fn signal(len: usize) -> Vec<C64> {
    (0..len)
        .map(|i| {
            let t = i as f64;
            C64::new((0.37 * t).sin() + 0.1 * (1.9 * t).cos(), (0.53 * t).cos())
        })
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

/// Layouts under test for a given (n, batch): packed contiguous rows and the
/// classic transposed access (stride = batch, dist = 1).
fn layouts(n: usize, batch: usize) -> Vec<(Layout, &'static str)> {
    vec![
        (Layout::contiguous(n), "contiguous"),
        (Layout::strided(batch), "strided"),
    ]
}

/// Gathers line `b` of a layout into a contiguous row (test-side oracle).
fn gather(data: &[C64], layout: Layout, n: usize, b: usize) -> Vec<C64> {
    (0..n)
        .map(|j| data[b * layout.dist + j * layout.stride])
        .collect()
}

#[test]
fn stockham_vs_radix2_vs_dft_all_pow2_batches_layouts() {
    // The O(N²) oracle is only run where it stays fast; Stockham-vs-radix2
    // covers every size up to 4096.
    const DFT_ORACLE_MAX: usize = 512;
    for log in 1..=12 {
        let n = 1usize << log;
        for batch in [1usize, 3, 16] {
            for (layout, layout_name) in layouts(n, batch) {
                let len = n * batch; // both layouts are dense in n·batch
                let x = signal(len);
                let auto = Plan1d::with_layout(n, batch, layout, layout);
                let legacy = Plan1d::with_engine(n, batch, layout, layout, Engine::Legacy);
                assert_eq!(auto.algo_name(), "stockham");
                assert_eq!(legacy.algo_name(), "radix2");

                let mut a = x.clone();
                let mut l = x.clone();
                auto.execute_inplace(&mut a, Direction::Forward);
                legacy.execute_inplace(&mut l, Direction::Forward);
                let tol = 1e-9 * (log as f64) * n as f64;
                assert!(
                    max_abs_diff(&a, &l) < tol,
                    "stockham vs radix2 diverge: n={n} batch={batch} {layout_name}"
                );

                if n <= DFT_ORACLE_MAX {
                    for b in 0..batch {
                        let line = gather(&x, layout, n, b);
                        let oracle = dft_1d(&line, Direction::Forward);
                        let got = gather(&a, layout, n, b);
                        assert!(
                            max_abs_diff(&got, &oracle) < 1e-8 * n as f64,
                            "stockham vs DFT diverge: n={n} batch={batch} {layout_name} line={b}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn smooth_lengths_vs_dft_and_roundtrip_all_batches_layouts() {
    for n in [6usize, 12, 24, 30, 40, 45, 60, 120, 210, 360, 480] {
        for batch in [1usize, 3, 16] {
            for (layout, layout_name) in layouts(n, batch) {
                let x = signal(n * batch);
                let plan = Plan1d::with_layout(n, batch, layout, layout);
                assert_eq!(plan.algo_name(), "stockham");
                let mut y = x.clone();
                plan.execute_inplace(&mut y, Direction::Forward);
                for b in 0..batch {
                    let oracle = dft_1d(&gather(&x, layout, n, b), Direction::Forward);
                    assert!(
                        max_abs_diff(&gather(&y, layout, n, b), &oracle) < 1e-9 * n as f64,
                        "stockham vs DFT diverge: n={n} batch={batch} {layout_name} line={b}"
                    );
                }
                plan.execute_inplace(&mut y, Direction::Inverse);
                let inv_n = 1.0 / n as f64;
                for v in y.iter_mut() {
                    *v = v.scale(inv_n);
                }
                assert!(
                    max_abs_diff(&y, &x) < 1e-9 * (n as f64).log2(),
                    "roundtrip drift: n={n} batch={batch} {layout_name}"
                );
            }
        }
    }
}

#[test]
fn forward_inverse_identity_all_pow2_batches_layouts() {
    for log in 1..=12 {
        let n = 1usize << log;
        for batch in [1usize, 3, 16] {
            for (layout, layout_name) in layouts(n, batch) {
                let x = signal(n * batch);
                let plan = Plan1d::with_layout(n, batch, layout, layout);
                let mut y = x.clone();
                plan.execute_inplace(&mut y, Direction::Forward);
                plan.execute_inplace(&mut y, Direction::Inverse);
                let inv_n = 1.0 / n as f64;
                for v in y.iter_mut() {
                    *v = v.scale(inv_n);
                }
                // ISSUE 4 acceptance bound: identity within 1e-9·log2(n).
                let tol = 1e-9 * log as f64;
                assert!(
                    max_abs_diff(&y, &x) < tol,
                    "roundtrip drift: n={n} batch={batch} {layout_name}"
                );
            }
        }
    }
}

#[test]
fn out_of_place_matches_inplace_both_engines() {
    for engine in [Engine::Auto, Engine::Legacy] {
        for (n, batch) in [(256usize, 16usize), (64, 3)] {
            for (layout, layout_name) in layouts(n, batch) {
                let x = signal(n * batch);
                let plan = Plan1d::with_engine(n, batch, layout, layout, engine);
                let mut out = vec![C64::ZERO; n * batch];
                plan.execute(&x, &mut out, Direction::Forward);
                let mut inplace = x;
                plan.execute_inplace(&mut inplace, Direction::Forward);
                assert_eq!(
                    out.iter()
                        .map(|c| (c.re.to_bits(), c.im.to_bits()))
                        .collect::<Vec<_>>(),
                    inplace
                        .iter()
                        .map(|c| (c.re.to_bits(), c.im.to_bits()))
                        .collect::<Vec<_>>(),
                    "in/out-of-place differ: {engine:?} n={n} batch={batch} {layout_name}"
                );
            }
        }
    }
}
