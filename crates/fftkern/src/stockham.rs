//! Stockham autosort FFT for every 2/3/5/7-smooth size.
//!
//! The workhorse of the kernel engine: any `n = 2^a·3^b·5^c·7^d` — the
//! powers of two the paper benchmarks and the small-prime products PPPM
//! grids use (§IV-D) — runs here; everything else goes through Bluestein.
//! Unlike the textbook Cooley–Tukey in [`radix`](crate::radix) (kept as a
//! test reference), the Stockham formulation folds the reordering
//! into the butterfly stages themselves: each stage reads one buffer and
//! writes the other in permuted order, so no digit-reversal pass ever
//! touches the data. The inner loop of every stage walks `s` *contiguous*
//! elements with the twiddle factors hoisted out of it entirely — they are
//! precomputed per stage at plan-build time and interned process-wide (see
//! [`twiddle::stockham_tables`]).
//!
//! Those `s` inner elements are independent lanes, which is also how a
//! strided batch is transformed: `w` adjacent lines laid out as an `[n][w]`
//! panel run the same stage list with every `s` multiplied by `w`
//! ([`StockhamPlan::execute_interleaved`]) — no transpose, lane `l` sees the
//! operation sequence of line `l` alone, and a lone line is `w = 1`.
//!
//! Stage radices are chosen by [`radix_decomposition`]: the factors of two
//! first — greedy radix-8 butterflies (3 data passes for 512, the paper's
//! production length, instead of 9 radix-2 passes), then a radix-4 or
//! radix-2 cleanup stage — followed by the radix-3, radix-5 and radix-7
//! stages. A power of two therefore has only the 8/4/2 stages, and its
//! stage list, twiddle table and output bits do not depend on the odd
//! radices existing.
//!
//! [`twiddle::stockham_tables`]: crate::twiddle::stockham_tables

use crate::complex::C64;
use crate::plan::Direction;
use crate::twiddle::{self, StockhamStage, StockhamTables};
use std::sync::Arc;

/// cos(π/4) = sin(π/4): the only irrational constant of the radix-8
/// butterfly (`ω₈ = (FRAC_1_SQRT_2, -FRAC_1_SQRT_2)`).
const H: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// sin(2π/3), the radix-3 butterfly's one irrational constant
/// (cos(2π/3) = −½ is exact).
pub(crate) const S3: f64 = 0.8660254037844386;
/// cos(2πk/5) and sin(2πk/5) for k = 1, 2: the radix-5 butterfly constants.
pub(crate) const C5_1: f64 = 0.30901699437494745;
pub(crate) const C5_2: f64 = -0.8090169943749475;
pub(crate) const S5_1: f64 = 0.9510565162951535;
pub(crate) const S5_2: f64 = 0.5877852522924731;
/// cos(2πk/7) and sin(2πk/7) for k = 1, 2, 3: the radix-7 constants.
const C7_1: f64 = 0.6234898018587335;
const C7_2: f64 = -0.2225209339563144;
const C7_3: f64 = -0.9009688679024191;
const S7_1: f64 = 0.7818314824680298;
const S7_2: f64 = 0.9749279121818236;
const S7_3: f64 = 0.4338837391175581;

/// Splits a smooth `n` into butterfly radices, first stage first: the
/// factors of two as greedy 8s then one radix-4 or radix-2 cleanup stage,
/// followed by the 3s, the 5s and the 7s. `n = 1` yields no stages.
pub fn radix_decomposition(n: usize) -> Vec<usize> {
    assert!(n > 0, "cannot decompose zero");
    let mut v = Vec::new();
    let mut k = n.trailing_zeros();
    let mut rest = n >> k;
    while k >= 3 {
        v.push(8);
        k -= 3;
    }
    if k == 2 {
        v.push(4);
    } else if k == 1 {
        v.push(2);
    }
    for r in [3usize, 5, 7] {
        while rest.is_multiple_of(r) {
            v.push(r);
            rest /= r;
        }
    }
    assert_eq!(rest, 1, "Stockham requires a 2/3/5/7-smooth size, got {n}");
    v
}

/// Precomputed state for a Stockham transform of fixed smooth size.
///
/// The per-stage twiddle tables are shared process-wide: two plans of equal
/// length hold the same `Arc`, so a fresh plan build after the first costs
/// an intern-map lookup, not `O(n)` table construction.
#[derive(Debug, Clone)]
pub struct StockhamPlan {
    n: usize,
    tables: Arc<StockhamTables>,
}

impl StockhamPlan {
    /// Builds a plan for size `n`, which must be 2/3/5/7-smooth
    /// ([`is_smooth`](crate::is_smooth)).
    pub fn new(n: usize) -> Self {
        StockhamPlan {
            n,
            tables: twiddle::stockham_tables(n),
        }
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for the degenerate size-1 plan.
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// Number of butterfly stages (one per radix of [`radix_decomposition`]).
    pub fn stages(&self) -> usize {
        self.tables.stages.len()
    }

    /// Scratch elements required by [`execute_scratch`]: one ping-pong
    /// buffer of `n` elements.
    ///
    /// [`execute_scratch`]: StockhamPlan::execute_scratch
    pub fn scratch_elems(&self) -> usize {
        self.n
    }

    /// In-place unnormalized transform of `data` (length must equal `n`),
    /// ping-ponging through `work` (at least `n` elements). The result
    /// always lands back in `data`; `work` is clobbered.
    pub fn execute_scratch(&self, data: &mut [C64], dir: Direction, work: &mut [C64]) {
        assert_eq!(data.len(), self.n, "buffer length does not match plan size");
        assert!(work.len() >= self.n, "work buffer smaller than n");
        let work = &mut work[..self.n];
        // An odd stage count ends in the buffer it did not start in;
        // seeding the ping-pong from `work` makes every size end in `data`.
        if self.tables.stages.len() % 2 == 1 {
            work.copy_from_slice(data);
            self.execute_interleaved(work, data, 1, dir);
        } else {
            self.execute_interleaved(data, work, 1, dir);
        }
    }

    /// Transforms `w` lines at once, laid out as an `[n][w]` panel: element
    /// `j` of line `l` at `x[j·w + l]`. Stage `{radix, m, s}` already treats
    /// its `s` inner elements as independent lanes — the twiddle depends on
    /// `p` only — so the panel is the plan's own stage list run with every
    /// `s` multiplied by `w`: lane `l` sees exactly the operation sequence
    /// of a lone line, and every stage (the first included) has `s ≥ w`
    /// contiguous elements for the vector-across-`q` kernels. The stages
    /// ping-pong between `x` and `y` (`n·w` elements each); returns
    /// `(result, other)` — `result` is `x` after an even stage count, `y`
    /// after an odd one — so callers chain transforms without a copy.
    pub fn execute_interleaved<'a>(
        &self,
        x: &'a mut [C64],
        y: &'a mut [C64],
        w: usize,
        dir: Direction,
    ) -> (&'a mut [C64], &'a mut [C64]) {
        assert_eq!(x.len(), self.n * w, "panel is not n × w");
        assert_eq!(y.len(), self.n * w, "work panel is not n × w");
        let inverse = matches!(dir, Direction::Inverse);
        let (mut src, mut dst) = (x, y);
        // Resolved once per transform, not per stage: the tier is a pair of
        // atomic loads and every stage of one transform must agree with the
        // others only for speed, not correctness (all tiers are
        // bit-identical by construction — see `simd`).
        let tier = crate::simd::active_tier();
        for st in &self.tables.stages {
            let tw = &self.tables.tw[st.tw_off..];
            let st = &StockhamStage { s: st.s * w, ..*st };
            // Widest vector kernel the tier and stage geometry admit;
            // `run_stage` returns false (tiny stages, scalar tier, non-x86)
            // to fall through to the portable bodies below.
            if crate::simd::run_stage(tier, src, dst, st, tw, inverse) {
                std::mem::swap(&mut src, &mut dst);
                continue;
            }
            // Direction is a const generic so the butterfly bodies compile
            // branch-free (the `±i` rotations and conjugations fold away).
            match (st.radix, inverse) {
                (2, false) => stage2::<false>(src, dst, st, tw),
                (2, true) => stage2::<true>(src, dst, st, tw),
                (4, false) => stage4::<false>(src, dst, st, tw),
                (4, true) => stage4::<true>(src, dst, st, tw),
                (8, false) => stage8::<false>(src, dst, st, tw),
                (8, true) => stage8::<true>(src, dst, st, tw),
                (3, false) => stage3::<false>(src, dst, st, tw),
                (3, true) => stage3::<true>(src, dst, st, tw),
                (5, false) => stage5::<false>(src, dst, st, tw),
                (5, true) => stage5::<true>(src, dst, st, tw),
                (7, false) => stage7::<false>(src, dst, st, tw),
                (7, true) => stage7::<true>(src, dst, st, tw),
                (r, _) => unreachable!("unsupported Stockham radix {r}"),
            }
            std::mem::swap(&mut src, &mut dst);
        }
        (src, dst)
    }

    /// Allocating convenience wrapper around [`execute_scratch`].
    ///
    /// [`execute_scratch`]: StockhamPlan::execute_scratch
    pub fn execute(&self, data: &mut [C64], dir: Direction) {
        let mut work = vec![C64::ZERO; self.n];
        self.execute_scratch(data, dir, &mut work);
    }
}

/// `±i·z`: `-i·z` forward (the DFT's `e^{-2πi}` kernel), `+i·z` inverse.
#[inline(always)]
fn rot<const INV: bool>(z: C64) -> C64 {
    if INV {
        C64::new(-z.im, z.re)
    } else {
        C64::new(z.im, -z.re)
    }
}

#[inline(always)]
fn cj<const INV: bool>(w: C64) -> C64 {
    if INV {
        w.conj()
    } else {
        w
    }
}

/// First stage (`s == 1`) of any radix: one butterfly per `p`, gathered
/// from `src[p + a·m]` and written as `R` contiguous elements. Without it
/// the general bodies below would slice `2R` one-element rows per
/// butterfly and run every `q` loop once (cf. `stage8`'s own first stage).
#[inline(always)]
fn first_stage<const R: usize, const INV: bool>(
    src: &[C64],
    dst: &mut [C64],
    m: usize,
    tw: &[C64],
    bfly: impl Fn([C64; R]) -> [C64; R],
) {
    let x: [&[C64]; R] = std::array::from_fn(|a| &src[a * m..(a + 1) * m]);
    for (p, d) in dst.as_chunks_mut::<R>().0.iter_mut().enumerate().take(m) {
        let t = &tw[(R - 1) * p..(R - 1) * (p + 1)];
        let y = bfly(std::array::from_fn(|a| x[a][p]));
        d[0] = y[0];
        for j in 1..R {
            d[j] = y[j] * cj::<INV>(t[j - 1]);
        }
    }
}

/// Radix-2 Stockham stage: `dst[s(2p+j)+q] = w^{jp}·DFT₂(src[s(p+am)+q])`.
///
/// All stage bodies slice their operands to exactly `s` elements before the
/// `q` loop so the bounds checks hoist out and the loop vectorizes.
fn stage2<const INV: bool>(src: &[C64], dst: &mut [C64], st: &StockhamStage, tw: &[C64]) {
    let (m, s) = (st.m, st.s);
    if s == 1 {
        return first_stage::<2, INV>(src, dst, m, tw, |[x, y]| [x + y, x - y]);
    }
    let (lo, hi) = src.split_at(m * s);
    for (p, &twp) in tw.iter().enumerate().take(m) {
        let w = cj::<INV>(twp);
        let o = p * s;
        let a = &lo[o..o + s];
        let b = &hi[o..o + s];
        let (d0, d1) = dst[2 * o..2 * o + 2 * s].split_at_mut(s);
        for q in 0..s {
            let x = a[q];
            let y = b[q];
            d0[q] = x + y;
            d1[q] = (x - y) * w;
        }
    }
}

/// Untwiddled 4-point DFT, outputs in natural order.
#[inline(always)]
fn bfly4<const INV: bool>([a, b, c, d]: [C64; 4]) -> [C64; 4] {
    let apc = a + c;
    let amc = a - c;
    let bpd = b + d;
    let ibmd = rot::<INV>(b - d);
    [apc + bpd, amc + ibmd, apc - bpd, amc - ibmd]
}

/// Radix-4 Stockham stage. Twiddles per butterfly row: `tw[3p..3p+3]` =
/// `w^p, w^{2p}, w^{3p}`.
fn stage4<const INV: bool>(src: &[C64], dst: &mut [C64], st: &StockhamStage, tw: &[C64]) {
    let (m, s) = (st.m, st.s);
    let ms = m * s;
    if s == 1 {
        return first_stage::<4, INV>(src, dst, m, tw, bfly4::<INV>);
    }
    for p in 0..m {
        let w1 = cj::<INV>(tw[3 * p]);
        let w2 = cj::<INV>(tw[3 * p + 1]);
        let w3 = cj::<INV>(tw[3 * p + 2]);
        let o = p * s;
        let x0 = &src[o..o + s];
        let x1 = &src[ms + o..ms + o + s];
        let x2 = &src[2 * ms + o..2 * ms + o + s];
        let x3 = &src[3 * ms + o..3 * ms + o + s];
        let (d01, d23) = dst[4 * o..4 * o + 4 * s].split_at_mut(2 * s);
        let (d0, d1) = d01.split_at_mut(s);
        let (d2, d3) = d23.split_at_mut(s);
        for q in 0..s {
            let [y0, y1, y2, y3] = bfly4::<INV>([x0[q], x1[q], x2[q], x3[q]]);
            d0[q] = y0;
            d1[q] = y1 * w1;
            d2[q] = y2 * w2;
            d3[q] = y3 * w3;
        }
    }
}

/// Radix-8 Stockham stage: an 8-point DFT (split into two 4-point DFTs and
/// a twiddled combine with the `ω₈` constants) followed by the stage
/// twiddles `tw[7p..7p+7]` = `w^p … w^{7p}`.
fn stage8<const INV: bool>(src: &[C64], dst: &mut [C64], st: &StockhamStage, tw: &[C64]) {
    let (m, s) = (st.m, st.s);
    let ms = m * s;
    // ω₈^1 and ω₈^3 (forward); ω₈^2 = ∓i is handled by `rot`.
    let (w81, w83) = if INV {
        (C64::new(H, H), C64::new(-H, H))
    } else {
        (C64::new(H, -H), C64::new(-H, -H))
    };
    if s == 1 {
        // First stage: one butterfly per `p`, contiguous 8-element writes.
        // Specialized so the per-butterfly slicing of the general form
        // doesn't dominate (its `q` loop would run a single iteration).
        for (p, d) in dst.chunks_exact_mut(8).take(m).enumerate() {
            let t = &tw[7 * p..7 * p + 7];
            let x = [
                src[p],
                src[p + ms],
                src[p + 2 * ms],
                src[p + 3 * ms],
                src[p + 4 * ms],
                src[p + 5 * ms],
                src[p + 6 * ms],
                src[p + 7 * ms],
            ];
            let e02 = x[0] + x[4];
            let e13 = x[2] + x[6];
            let em02 = x[0] - x[4];
            let iem13 = rot::<INV>(x[2] - x[6]);
            let e0 = e02 + e13;
            let e1 = em02 + iem13;
            let e2 = e02 - e13;
            let e3 = em02 - iem13;
            let o02 = x[1] + x[5];
            let o13 = x[3] + x[7];
            let om02 = x[1] - x[5];
            let iom13 = rot::<INV>(x[3] - x[7]);
            let f0 = o02 + o13;
            let f1 = (om02 + iom13) * w81;
            let f2 = rot::<INV>(o02 - o13);
            let f3 = (om02 - iom13) * w83;
            d[0] = e0 + f0;
            d[1] = (e1 + f1) * cj::<INV>(t[0]);
            d[2] = (e2 + f2) * cj::<INV>(t[1]);
            d[3] = (e3 + f3) * cj::<INV>(t[2]);
            d[4] = (e0 - f0) * cj::<INV>(t[3]);
            d[5] = (e1 - f1) * cj::<INV>(t[4]);
            d[6] = (e2 - f2) * cj::<INV>(t[5]);
            d[7] = (e3 - f3) * cj::<INV>(t[6]);
        }
        return;
    }
    for p in 0..m {
        let t = &tw[7 * p..7 * p + 7];
        let w = [
            cj::<INV>(t[0]),
            cj::<INV>(t[1]),
            cj::<INV>(t[2]),
            cj::<INV>(t[3]),
            cj::<INV>(t[4]),
            cj::<INV>(t[5]),
            cj::<INV>(t[6]),
        ];
        let o = p * s;
        let x0 = &src[o..o + s];
        let x1 = &src[ms + o..ms + o + s];
        let x2 = &src[2 * ms + o..2 * ms + o + s];
        let x3 = &src[3 * ms + o..3 * ms + o + s];
        let x4 = &src[4 * ms + o..4 * ms + o + s];
        let x5 = &src[5 * ms + o..5 * ms + o + s];
        let x6 = &src[6 * ms + o..6 * ms + o + s];
        let x7 = &src[7 * ms + o..7 * ms + o + s];
        let (dl, dh) = dst[8 * o..8 * o + 8 * s].split_at_mut(4 * s);
        let (d01, d23) = dl.split_at_mut(2 * s);
        let (d0, d1) = d01.split_at_mut(s);
        let (d2, d3) = d23.split_at_mut(s);
        let (d45, d67) = dh.split_at_mut(2 * s);
        let (d4, d5) = d45.split_at_mut(s);
        let (d6, d7) = d67.split_at_mut(s);
        for q in 0..s {
            // 4-point DFT of the even samples (x0 x2 x4 x6).
            let e02 = x0[q] + x4[q];
            let e13 = x2[q] + x6[q];
            let em02 = x0[q] - x4[q];
            let iem13 = rot::<INV>(x2[q] - x6[q]);
            let e0 = e02 + e13;
            let e1 = em02 + iem13;
            let e2 = e02 - e13;
            let e3 = em02 - iem13;

            // 4-point DFT of the odd samples (x1 x3 x5 x7).
            let o02 = x1[q] + x5[q];
            let o13 = x3[q] + x7[q];
            let om02 = x1[q] - x5[q];
            let iom13 = rot::<INV>(x3[q] - x7[q]);
            let f0 = o02 + o13;
            let f1 = (om02 + iom13) * w81;
            let f2 = rot::<INV>(o02 - o13);
            let f3 = (om02 - iom13) * w83;

            d0[q] = e0 + f0;
            d1[q] = (e1 + f1) * w[0];
            d2[q] = (e2 + f2) * w[1];
            d3[q] = (e3 + f3) * w[2];
            d4[q] = (e0 - f0) * w[3];
            d5[q] = (e1 - f1) * w[4];
            d6[q] = (e2 - f2) * w[5];
            d7[q] = (e3 - f3) * w[6];
        }
    }
}

/// Untwiddled 3-point DFT. The two conjugate outputs pair up:
/// `y₁,₂ = (x₀ − ½(x₁+x₂)) ∓ i·sin(2π/3)·(x₁−x₂)`.
#[inline(always)]
fn bfly3<const INV: bool>([x0, x1, x2]: [C64; 3]) -> [C64; 3] {
    let t = x1 + x2;
    let u = rot::<INV>((x1 - x2).scale(S3));
    let h = x0 - t.scale(0.5);
    [x0 + t, h + u, h - u]
}

/// Untwiddled 5-point DFT: outputs `k` and `5−k` share a cosine part `a_k`
/// and differ in the sign of the sine part `b_k`.
#[inline(always)]
fn bfly5<const INV: bool>([x0, x1, x2, x3, x4]: [C64; 5]) -> [C64; 5] {
    let t1 = x1 + x4;
    let t2 = x2 + x3;
    let u1 = x1 - x4;
    let u2 = x2 - x3;
    let a1 = x0 + t1.scale(C5_1) + t2.scale(C5_2);
    let a2 = x0 + t1.scale(C5_2) + t2.scale(C5_1);
    let b1 = rot::<INV>(u1.scale(S5_1) + u2.scale(S5_2));
    let b2 = rot::<INV>(u1.scale(S5_2) - u2.scale(S5_1));
    [x0 + t1 + t2, a1 + b1, a2 + b2, a2 - b2, a1 - b1]
}

/// Untwiddled 7-point DFT; same conjugate-pair structure as [`bfly5`].
#[inline(always)]
fn bfly7<const INV: bool>([x0, x1, x2, x3, x4, x5, x6]: [C64; 7]) -> [C64; 7] {
    let t1 = x1 + x6;
    let t2 = x2 + x5;
    let t3 = x3 + x4;
    let u1 = x1 - x6;
    let u2 = x2 - x5;
    let u3 = x3 - x4;
    let a1 = x0 + t1.scale(C7_1) + t2.scale(C7_2) + t3.scale(C7_3);
    let a2 = x0 + t1.scale(C7_2) + t2.scale(C7_3) + t3.scale(C7_1);
    let a3 = x0 + t1.scale(C7_3) + t2.scale(C7_1) + t3.scale(C7_2);
    let b1 = rot::<INV>(u1.scale(S7_1) + u2.scale(S7_2) + u3.scale(S7_3));
    let b2 = rot::<INV>(u1.scale(S7_2) - u2.scale(S7_3) - u3.scale(S7_1));
    let b3 = rot::<INV>(u1.scale(S7_3) - u2.scale(S7_1) + u3.scale(S7_2));
    [
        x0 + t1 + t2 + t3,
        a1 + b1,
        a2 + b2,
        a3 + b3,
        a3 - b3,
        a2 - b2,
        a1 - b1,
    ]
}

/// Radix-3 Stockham stage. Twiddles per butterfly row: `tw[2p..2p+2]` =
/// `w^p, w^{2p}`.
fn stage3<const INV: bool>(src: &[C64], dst: &mut [C64], st: &StockhamStage, tw: &[C64]) {
    let (m, s) = (st.m, st.s);
    let ms = m * s;
    if s == 1 {
        return first_stage::<3, INV>(src, dst, m, tw, bfly3::<INV>);
    }
    for p in 0..m {
        let w1 = cj::<INV>(tw[2 * p]);
        let w2 = cj::<INV>(tw[2 * p + 1]);
        let o = p * s;
        let x0 = &src[o..o + s];
        let x1 = &src[ms + o..ms + o + s];
        let x2 = &src[2 * ms + o..2 * ms + o + s];
        let (d0, d12) = dst[3 * o..3 * o + 3 * s].split_at_mut(s);
        let (d1, d2) = d12.split_at_mut(s);
        for q in 0..s {
            let [y0, y1, y2] = bfly3::<INV>([x0[q], x1[q], x2[q]]);
            d0[q] = y0;
            d1[q] = y1 * w1;
            d2[q] = y2 * w2;
        }
    }
}

/// Radix-5 Stockham stage. Twiddles per butterfly row: `tw[4p..4p+4]` =
/// `w^p … w^{4p}`.
fn stage5<const INV: bool>(src: &[C64], dst: &mut [C64], st: &StockhamStage, tw: &[C64]) {
    let (m, s) = (st.m, st.s);
    let ms = m * s;
    if s == 1 {
        return first_stage::<5, INV>(src, dst, m, tw, bfly5::<INV>);
    }
    for p in 0..m {
        let t = &tw[4 * p..4 * p + 4];
        let w: [C64; 4] = std::array::from_fn(|j| cj::<INV>(t[j]));
        let o = p * s;
        let x0 = &src[o..o + s];
        let x1 = &src[ms + o..ms + o + s];
        let x2 = &src[2 * ms + o..2 * ms + o + s];
        let x3 = &src[3 * ms + o..3 * ms + o + s];
        let x4 = &src[4 * ms + o..4 * ms + o + s];
        let (d0, rest) = dst[5 * o..5 * o + 5 * s].split_at_mut(s);
        let (d12, d34) = rest.split_at_mut(2 * s);
        let (d1, d2) = d12.split_at_mut(s);
        let (d3, d4) = d34.split_at_mut(s);
        for q in 0..s {
            let [y0, y1, y2, y3, y4] = bfly5::<INV>([x0[q], x1[q], x2[q], x3[q], x4[q]]);
            d0[q] = y0;
            d1[q] = y1 * w[0];
            d2[q] = y2 * w[1];
            d3[q] = y3 * w[2];
            d4[q] = y4 * w[3];
        }
    }
}

/// Radix-7 Stockham stage. Twiddles per butterfly row: `tw[6p..6p+6]` =
/// `w^p … w^{6p}`.
fn stage7<const INV: bool>(src: &[C64], dst: &mut [C64], st: &StockhamStage, tw: &[C64]) {
    let (m, s) = (st.m, st.s);
    let ms = m * s;
    if s == 1 {
        return first_stage::<7, INV>(src, dst, m, tw, bfly7::<INV>);
    }
    for p in 0..m {
        let t = &tw[6 * p..6 * p + 6];
        let w: [C64; 6] = std::array::from_fn(|j| cj::<INV>(t[j]));
        let o = p * s;
        let x0 = &src[o..o + s];
        let x1 = &src[ms + o..ms + o + s];
        let x2 = &src[2 * ms + o..2 * ms + o + s];
        let x3 = &src[3 * ms + o..3 * ms + o + s];
        let x4 = &src[4 * ms + o..4 * ms + o + s];
        let x5 = &src[5 * ms + o..5 * ms + o + s];
        let x6 = &src[6 * ms + o..6 * ms + o + s];
        let (d0, rest) = dst[7 * o..7 * o + 7 * s].split_at_mut(s);
        let (d123, d456) = rest.split_at_mut(3 * s);
        let (d1, d23) = d123.split_at_mut(s);
        let (d2, d3) = d23.split_at_mut(s);
        let (d4, d56) = d456.split_at_mut(s);
        let (d5, d6) = d56.split_at_mut(s);
        for q in 0..s {
            let [y0, y1, y2, y3, y4, y5, y6] =
                bfly7::<INV>([x0[q], x1[q], x2[q], x3[q], x4[q], x5[q], x6[q]]);
            d0[q] = y0;
            d1[q] = y1 * w[0];
            d2[q] = y2 * w[1];
            d3[q] = y3 * w[2];
            d4[q] = y4 * w[3];
            d5[q] = y5 * w[4];
            d6[q] = y6 * w[5];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_abs_diff;
    use crate::dft::dft_1d;

    fn ramp(n: usize) -> Vec<C64> {
        (0..n)
            .map(|i| C64::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect()
    }

    #[test]
    fn pow2_stage_lists_are_pinned() {
        // Literal on purpose: a power of two's output bits are a function of
        // its stage list and twiddle table, so pinning the lists makes
        // "pow2 results never moved" structural rather than numerical.
        const POW2: [&[usize]; 16] = [
            &[2],
            &[4],
            &[8],
            &[8, 2],
            &[8, 4],
            &[8, 8],
            &[8, 8, 2],
            &[8, 8, 4],
            &[8, 8, 8],
            &[8, 8, 8, 2],
            &[8, 8, 8, 4],
            &[8, 8, 8, 8],
            &[8, 8, 8, 8, 2],
            &[8, 8, 8, 8, 4],
            &[8, 8, 8, 8, 8],
            &[8, 8, 8, 8, 8, 2],
        ];
        assert!(radix_decomposition(1).is_empty());
        for (k, want) in POW2.iter().enumerate() {
            assert_eq!(radix_decomposition(2usize << k), *want, "n=2^{}", k + 1);
        }
    }

    #[test]
    fn smooth_decomposition_puts_pow2_radices_first() {
        assert_eq!(radix_decomposition(60), vec![4, 3, 5]);
        assert_eq!(radix_decomposition(480), vec![8, 4, 3, 5]);
        assert_eq!(radix_decomposition(210), vec![2, 3, 5, 7]);
        assert_eq!(radix_decomposition(2401), vec![7, 7, 7, 7]);
        for n in (1..=2048usize).filter(|&n| crate::is_smooth(n)) {
            let r = radix_decomposition(n);
            assert_eq!(r.iter().product::<usize>(), n, "{r:?}");
            // Same stage list as the bare power of two, then ascending odd
            // radices: every 2/4/8 stage sees a power-of-two `s`.
            let k = n.trailing_zeros();
            let pow2 = radix_decomposition(1 << k);
            assert_eq!(r[..pow2.len()], pow2[..], "n={n}");
            let odd = &r[pow2.len()..];
            assert!(odd.iter().all(|x| [3, 5, 7].contains(x)), "n={n}: {r:?}");
            assert!(odd.windows(2).all(|w| w[0] <= w[1]), "n={n}: {r:?}");
        }
    }

    #[test]
    fn butterfly_constants_match_libm() {
        use std::f64::consts::PI;
        let near = |c: f64, want: f64| (c - want).abs() < 2e-16;
        assert!(near(S3, (2.0 * PI / 3.0).sin()));
        for (k, (c, s)) in [(C5_1, S5_1), (C5_2, S5_2)].into_iter().enumerate() {
            let th = 2.0 * PI * (k + 1) as f64 / 5.0;
            assert!(near(c, th.cos()) && near(s, th.sin()), "5: k={}", k + 1);
        }
        for (k, (c, s)) in [(C7_1, S7_1), (C7_2, S7_2), (C7_3, S7_3)]
            .into_iter()
            .enumerate()
        {
            let th = 2.0 * PI * (k + 1) as f64 / 7.0;
            assert!(near(c, th.cos()) && near(s, th.sin()), "7: k={}", k + 1);
        }
    }

    #[test]
    fn every_smooth_length_matches_dft_both_directions_and_round_trips() {
        // The whole smooth plan space the distributed tests can reach, plus
        // pure powers of each odd radix and the deep mixed sizes.
        let sizes = (1..=512usize)
            .filter(|&n| crate::is_smooth(n))
            .chain([625, 729, 1000, 1920, 2187, 2401, 3125]);
        for n in sizes {
            let plan = StockhamPlan::new(n);
            let x = ramp(n);
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut fast = x.clone();
                plan.execute(&mut fast, dir);
                let slow = dft_1d(&x, dir);
                assert!(
                    max_abs_diff(&fast, &slow) < 1e-9 * n as f64,
                    "n={n} {dir:?}: {}",
                    max_abs_diff(&fast, &slow)
                );
            }
            let mut y = x.clone();
            plan.execute(&mut y, Direction::Forward);
            plan.execute(&mut y, Direction::Inverse);
            let expected: Vec<C64> = x.iter().map(|v| v.scale(n as f64)).collect();
            assert!(max_abs_diff(&y, &expected) < 1e-10 * n as f64, "n={n}");
        }
    }

    #[test]
    fn matches_dft_for_all_pow2_up_to_1024() {
        for log in 0..=10 {
            let n = 1usize << log;
            let plan = StockhamPlan::new(n);
            let x = ramp(n);
            let mut fast = x.clone();
            plan.execute(&mut fast, Direction::Forward);
            let slow = dft_1d(&x, Direction::Forward);
            assert!(
                max_abs_diff(&fast, &slow) < 1e-8 * n as f64,
                "mismatch at n={n}"
            );
        }
    }

    #[test]
    fn inverse_matches_dft() {
        for n in [2usize, 8, 16, 64, 128, 512] {
            let plan = StockhamPlan::new(n);
            let x = ramp(n);
            let mut fast = x.clone();
            plan.execute(&mut fast, Direction::Inverse);
            let slow = dft_1d(&x, Direction::Inverse);
            assert!(max_abs_diff(&fast, &slow) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn roundtrip_scales_by_n() {
        for n in [4usize, 32, 256, 2048] {
            let plan = StockhamPlan::new(n);
            let x = ramp(n);
            let mut y = x.clone();
            plan.execute(&mut y, Direction::Forward);
            plan.execute(&mut y, Direction::Inverse);
            let expected: Vec<C64> = x.iter().map(|v| v.scale(n as f64)).collect();
            assert!(max_abs_diff(&y, &expected) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn agrees_with_legacy_radix2() {
        use crate::radix::Radix2Plan;
        for log in 1..=12 {
            let n = 1usize << log;
            let sp = StockhamPlan::new(n);
            let rp = Radix2Plan::new(n);
            let x = ramp(n);
            let mut a = x.clone();
            let mut b = x;
            sp.execute(&mut a, Direction::Forward);
            rp.execute(&mut b, Direction::Forward);
            assert!(
                max_abs_diff(&a, &b) < 1e-9 * (log as f64) * n as f64,
                "n={n}"
            );
        }
    }

    #[test]
    fn shared_tables_between_equal_sizes() {
        let a = StockhamPlan::new(64);
        let b = StockhamPlan::new(64);
        assert!(Arc::ptr_eq(&a.tables, &b.tables));
    }

    #[test]
    #[should_panic(expected = "smooth")]
    fn rejects_non_smooth() {
        let _ = StockhamPlan::new(22);
    }

    #[test]
    fn size_one_is_identity() {
        let plan = StockhamPlan::new(1);
        let mut x = vec![C64::new(3.0, -4.0)];
        plan.execute(&mut x, Direction::Forward);
        assert_eq!(x[0], C64::new(3.0, -4.0));
        assert_eq!(plan.stages(), 0);
    }
}
