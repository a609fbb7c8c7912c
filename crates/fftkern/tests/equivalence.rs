//! Exhaustive engine-equivalence suite (ISSUE 4 satellite).
//!
//! Sweeps every power of two in {2..4096} × batch {1, 3, 16} × layout
//! {contiguous, strided, gapped} and checks that the Stockham engine, the
//! reference `Radix2Plan`, and (for small sizes) the naive O(N²) DFT all
//! agree, and that forward∘inverse is the identity within `1e-9·log₂(n)`
//! after normalization. Smooth non-pow2 lengths get the same batch × layout
//! sweep against the DFT oracle, and the per-line gather/scatter route of
//! `Plan1d` (gapped and mixed in≠out layouts) its own DFT check over pow2,
//! smooth and Bluestein lengths.
//!
//! Strided batches, and packed batches of rows under 64 points, transform
//! panels of adjacent lines at once (lane `l` of a Stockham stage run at
//! `s·w` is line `l`), so a second family of tests pins both layouts
//! `to_bits`-equal to transforming each line alone through the per-line
//! engine: in place, out of place, and as shuffled line ranges.

use fftkern::dft::dft_1d;
use fftkern::plan::{Layout, Plan1d};
use fftkern::radix::Radix2Plan;
use fftkern::{Direction, C64};

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

/// Rows `2n` apart with elements 2 apart: neither packed nor `dist == 1`,
/// so `Plan1d` gathers and scatters it line by line.
fn gapped(n: usize) -> Layout {
    Layout {
        stride: 2,
        dist: 2 * n,
    }
}

/// Layouts under test for a given (n, batch), one per `Plan1d` route: packed
/// contiguous rows, the classic transposed access (stride = batch,
/// dist = 1), and a gapped one.
fn layouts(n: usize, batch: usize) -> Vec<(Layout, &'static str)> {
    vec![
        (Layout::contiguous(n), "contiguous"),
        (Layout::strided(batch), "strided"),
        (gapped(n), "gapped"),
    ]
}

/// Gathers line `b` of a layout into a contiguous row (test-side oracle).
fn gather(data: &[C64], layout: Layout, n: usize, b: usize) -> Vec<C64> {
    (0..n)
        .map(|j| data[b * layout.dist + j * layout.stride])
        .collect()
}

/// Largest deviation of `y / n` from `x` over the lines of `layout`.
fn roundtrip_err(x: &[C64], y: &[C64], layout: Layout, n: usize, batch: usize) -> f64 {
    let inv_n = 1.0 / n as f64;
    (0..batch)
        .map(|b| {
            let back: Vec<C64> = gather(y, layout, n, b)
                .iter()
                .map(|v| v.scale(inv_n))
                .collect();
            max_abs_diff(&back, &gather(x, layout, n, b))
        })
        .fold(0.0, f64::max)
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
                let plan = Plan1d::with_layout(n, batch, layout, layout);
                assert_eq!(plan.algo_name(), "stockham");
                let reference = Radix2Plan::new(n);
                let x = signal(plan.required_input_len());
                let mut a = x.clone();
                plan.execute_inplace(&mut a, Direction::Forward);
                let tol = 1e-9 * (log as f64) * n as f64;
                for b in 0..batch {
                    let line = gather(&x, layout, n, b);
                    let got = gather(&a, layout, n, b);
                    let mut want = line.clone();
                    reference.execute(&mut want, Direction::Forward);
                    assert!(
                        max_abs_diff(&got, &want) < tol,
                        "stockham vs radix2 diverge: n={n} batch={batch} {layout_name} line={b}"
                    );
                    if n <= DFT_ORACLE_MAX {
                        let oracle = dft_1d(&line, Direction::Forward);
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
                let plan = Plan1d::with_layout(n, batch, layout, layout);
                assert_eq!(plan.algo_name(), "stockham");
                let x = signal(plan.required_input_len());
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
                assert!(
                    roundtrip_err(&x, &y, layout, n, batch) < 1e-9 * (n as f64).log2(),
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
                let plan = Plan1d::with_layout(n, batch, layout, layout);
                let x = signal(plan.required_input_len());
                let mut y = x.clone();
                plan.execute_inplace(&mut y, Direction::Forward);
                plan.execute_inplace(&mut y, Direction::Inverse);
                // ISSUE 4 acceptance bound: identity within 1e-9·log2(n).
                let tol = 1e-9 * log as f64;
                assert!(
                    roundtrip_err(&x, &y, layout, n, batch) < tol,
                    "roundtrip drift: n={n} batch={batch} {layout_name}"
                );
            }
        }
    }
}

#[test]
fn out_of_place_matches_inplace() {
    for (n, batch) in [(256usize, 16usize), (64, 3)] {
        for (layout, layout_name) in layouts(n, batch) {
            let plan = Plan1d::with_layout(n, batch, layout, layout);
            let x = signal(plan.required_input_len());
            // Out of place writes only the lines; start from the input so
            // the gaps of a gapped layout compare equal too.
            let mut out = x.clone();
            plan.execute(&x, &mut out, Direction::Forward);
            let mut inplace = x;
            plan.execute_inplace(&mut inplace, Direction::Forward);
            assert_eq!(
                bits(&out),
                bits(&inplace),
                "in/out-of-place differ: n={n} batch={batch} {layout_name}"
            );
        }
    }
}

#[test]
fn gather_scatter_route_vs_dft() {
    // The per-line route of `Plan1d::run_lines` — taken whenever the layouts
    // are neither packed rows nor a `dist == 1` pair — against the O(N²)
    // oracle: a gapped layout in place and out of place, and a mixed pair
    // (strided in → contiguous out) that only exists out of place. Pow2,
    // smooth and Bluestein lengths, both directions.
    for n in [16usize, 60, 13] {
        for batch in [1usize, 3, 16] {
            let pairs = [
                (gapped(n), gapped(n), "gapped"),
                (Layout::strided(batch), Layout::contiguous(n), "mixed"),
            ];
            for (input, output, name) in pairs {
                let plan = Plan1d::with_layout(n, batch, input, output);
                let x = signal(plan.required_input_len());
                for dir in [Direction::Forward, Direction::Inverse] {
                    let check = |y: &[C64], how: &str| {
                        for b in 0..batch {
                            let oracle = dft_1d(&gather(&x, input, n, b), dir);
                            assert!(
                                max_abs_diff(&gather(y, output, n, b), &oracle) < 1e-9 * n as f64,
                                "vs DFT: n={n} batch={batch} {name} {how} {dir:?} line={b}"
                            );
                        }
                    };
                    let mut out = vec![C64::ZERO; plan.required_output_len()];
                    plan.execute(&x, &mut out, dir);
                    check(&out, "out of place");
                    if input == output {
                        let mut inplace = x.clone();
                        plan.execute_inplace(&mut inplace, dir);
                        check(&inplace, "in place");
                    }
                }
            }
        }
    }
}

/// Exact bit pattern of a complex buffer.
fn bits(data: &[C64]) -> Vec<(u64, u64)> {
    data.iter()
        .map(|c| (c.re.to_bits(), c.im.to_bits()))
        .collect()
}

/// The oracle of the panel tests: every line of `layout` gathered and
/// transformed alone by `Plan1d::contiguous(n, 1)`, whose single line
/// always takes the per-line loop.
fn lone_lines(x: &[C64], layout: Layout, n: usize, batch: usize, dir: Direction) -> Vec<C64> {
    let one = Plan1d::contiguous(n, 1);
    let mut scratch = vec![C64::ZERO; one.scratch_elems()];
    let mut out = x.to_vec();
    for b in 0..batch {
        let mut line = gather(x, layout, n, b);
        one.execute_inplace_scratch(&mut line, dir, &mut scratch);
        for (j, v) in line.into_iter().enumerate() {
            out[b * layout.dist + j * layout.stride] = v;
        }
    }
    out
}

/// Disjoint `[lo, hi)` ranges covering `0..batch` with ends that fall off
/// every panel-width multiple, in a scrambled order.
fn scrambled_ranges(batch: usize) -> Vec<(usize, usize)> {
    let mut cuts = vec![
        0,
        1,
        batch / 4 + 1,
        batch / 2,
        batch / 2 + 3,
        batch - 1,
        batch,
    ];
    cuts.iter_mut().for_each(|c| *c = (*c).min(batch));
    cuts.sort_unstable();
    cuts.dedup();
    let mut ranges: Vec<(usize, usize)> = cuts.windows(2).map(|w| (w[0], w[1])).collect();
    let mid = ranges.len() / 2;
    ranges.rotate_left(mid);
    ranges.reverse();
    ranges
}

#[test]
fn strided_batches_are_bitwise_the_lone_line_engine() {
    // Every smooth length up to 128 (radix-7 stages are scalar-only, 45 and
    // 49 never have an even `s`), the deep pow2/mixed sizes, and Bluestein
    // primes whose `[conv_len][w]` panel rides the same engine, at every
    // one of `BATCHES`.
    let sizes = (1..=128usize)
        .filter(|&n| fftkern::is_smooth(n))
        .chain([250, 480, 512, 1000, 13, 97, 499]);
    for n in sizes {
        for batch in BATCHES {
            assert_batch_is_lone_lines(n, batch, Layout::strided(batch));
        }
    }
}

#[test]
fn packed_batches_are_bitwise_the_lone_line_engine() {
    // Packed rows shorter than 64 points are gathered into the same
    // lane-interleaved panels, the rest run per line: every smooth length
    // up to 128 (64 and up on the per-line side), three deep sizes and a
    // Bluestein prime on each side, at every one of `BATCHES`.
    let sizes = (1..=128usize)
        .filter(|&n| fftkern::is_smooth(n))
        .chain([13, 97, 250, 480, 512]);
    for n in sizes {
        for batch in BATCHES {
            assert_batch_is_lone_lines(n, batch, Layout::contiguous(n));
        }
    }
}

/// Batches of the panel tests: full panels, ragged tails narrower than a
/// vector (1, 2, 3, 5) and odd `s·w` in front of every stage kernel.
const BATCHES: [usize; 7] = [1, 2, 3, 5, 64, 70, 131];

/// A `batch × n` plan on `layout` (same in and out), run in place, out of
/// place and as scrambled line ranges in both directions, must equal
/// [`lone_lines`] bit for bit.
fn assert_batch_is_lone_lines(n: usize, batch: usize, layout: Layout) {
    let plan = Plan1d::with_layout(n, batch, layout, layout);
    let mut scratch = vec![C64::ZERO; plan.scratch_elems()];
    let len = plan.required_input_len();
    let x = signal(len);
    for dir in [Direction::Forward, Direction::Inverse] {
        let want = bits(&lone_lines(&x, layout, n, batch, dir));
        let what = format!("n={n} batch={batch} {layout:?} {dir:?}");

        let mut inplace = x.clone();
        plan.execute_inplace_scratch(&mut inplace, dir, &mut scratch);
        assert_eq!(bits(&inplace), want, "in place: {what}");

        let mut out = vec![C64::ZERO; len];
        plan.execute_scratch(&x, &mut out, dir, &mut scratch);
        assert_eq!(bits(&out), want, "out of place: {what}");

        // The transform-ahead contract: any disjoint cover, any order.
        let mut ranged = x.clone();
        for (lo, hi) in scrambled_ranges(batch) {
            plan.execute_lines_inplace_scratch(&mut ranged, dir, &mut scratch, lo, hi);
        }
        assert_eq!(bits(&ranged), want, "line ranges: {what}");
    }
}

#[test]
fn axis1_planes_with_fewer_lines_than_lanes() {
    // The middle axis of an `[n0][n1][n2]` box as `distfft` walks it: one
    // `Layout::strided(n2)` batch of `n2` lines per axis-0 plane. With
    // n2 ∈ {1, 3, 6} every panel is narrower than an AVX-512 vector or
    // ragged against it.
    let n0 = 3;
    for n1 in [8usize, 12, 35, 60, 64] {
        for n2 in [1usize, 3, 6] {
            let layout = Layout::strided(n2);
            let plan = Plan1d::with_layout(n1, n2, layout, layout);
            let mut scratch = vec![C64::ZERO; plan.scratch_elems()];
            let x = signal(n0 * n1 * n2);
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut got = x.clone();
                for plane in got.chunks_mut(n1 * n2) {
                    plan.execute_inplace_scratch(plane, dir, &mut scratch);
                }
                let want: Vec<C64> = x
                    .chunks(n1 * n2)
                    .flat_map(|plane| lone_lines(plane, Layout::strided(n2), n1, n2, dir))
                    .collect();
                assert_eq!(bits(&got), bits(&want), "n1={n1} n2={n2} {dir:?}");
            }
        }
    }
}
