//! Runtime-dispatched SIMD butterfly kernels for the Stockham engine.
//!
//! The Stockham stage bodies in [`stockham`](crate::stockham) walk `s`
//! *independent* butterflies per twiddle row — same twiddle, same operation
//! sequence, different data. That makes them vectorizable **across
//! butterflies**: an AVX2 register holds 2 interleaved `C64`s (`f64x4`), an
//! AVX-512 register holds 4 (`f64x8`), and every complex element still sees
//! the *exact scalar operation order* — lane arithmetic is elementwise, the
//! complex multiply uses the same two products per component (addition is
//! IEEE-commutative), and `±i` rotations are pure sign flips and swaps. The
//! vector path is therefore **bit-identical** to the scalar path, which the
//! equivalence suite asserts with `to_bits` comparisons
//! (`tests/simd_equivalence.rs`).
//!
//! Dispatch is per stage: the widest tier whose lane count divides the
//! stage geometry runs, everything else falls back to scalar. A stage is
//! admitted on `s % LANES == 0`, so the vector loops never see a tail — for
//! a power of two that is every stage after the first, for a smooth length
//! (60 = 4·3·5 has `s` = 1, 4, 12; 45 = 3·3·5 has 1, 3, 9) whichever stages
//! happen to divide. The radix-8 `s == 1` first stage gets its own kernel
//! that vectorizes across the butterfly index `p` instead (loads are
//! contiguous there, stores split per 128-bit complex), admitted on
//! `m % LANES == 0` (40 = 8·5 has `m` = 5 and stays scalar). Radix 2, 4, 8,
//! 3 and 5 have vector kernels; radix 7 has only the scalar body.
//!
//! The active tier is the widest one CPU feature detection finds
//! (`is_x86_feature_detected!`, cached in a [`OnceLock`]). [`force_tier`]
//! overrides it at runtime for in-process A/B measurements and the
//! equivalence tests. Non-x86 targets compile the dispatcher to a
//! scalar-only stub.
//!
//! This module and [`counting`](crate::counting) are the crate's `unsafe`
//! perimeter: `fftkern`'s `[lints]` set `unsafe_code = "deny"` (every
//! other package forbids it) and `clippy::undocumented_unsafe_blocks =
//! "deny"`, so every `unsafe` block below carries a `// SAFETY:` comment
//! (DESIGN.md §13). `unsafe` anywhere else in the crate still fails the
//! build.

// One of the two modules allowed to use `unsafe`: raw-pointer vector
// loads/stores and feature-gated kernel entry. The rustc lint is opened
// up here and in `counting.rs` only;
// each block's justification is its `// SAFETY:` comment, which clippy
// requires.
#![allow(unsafe_code)]

use crate::complex::C64;
use crate::twiddle::StockhamStage;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Kernel tier the per-stage dispatcher can select. Ordered by width so
/// clamping a request to the detected tier is a `min`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Portable scalar stage bodies (the PR-4 engine; always available).
    Scalar,
    /// AVX2 `f64x4`: 2 complex elements per vector.
    Avx2,
    /// AVX-512F `f64x8`: 4 complex elements per vector.
    Avx512,
}

impl SimdTier {
    /// Short name for traces and bench stamps.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }
}

/// Widest tier the host CPU supports, from feature detection. Cached after
/// the first call.
pub fn detected_tier() -> SimdTier {
    static DETECTED: OnceLock<SimdTier> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                SimdTier::Avx512
            } else if std::arch::is_x86_feature_detected!("avx2") {
                SimdTier::Avx2
            } else {
                SimdTier::Scalar
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            SimdTier::Scalar
        }
    })
}

/// True when `tier`'s kernels can run on this host.
pub fn tier_available(tier: SimdTier) -> bool {
    tier <= detected_tier()
}

/// In-process tier override: 0 = none (use [`detected_tier`]), otherwise
/// the forced tier + 1. Lets benches and the equivalence suite A/B tiers
/// inside one process.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Forces the dispatcher to `tier` (clamped to the detected tier so a
/// forced kernel can always legally run), or restores the detected tier
/// with `None`. Outputs are bit-identical across tiers, so flipping this
/// mid-process never changes results — only speed.
pub fn force_tier(tier: Option<SimdTier>) {
    let v = match tier {
        None => 0,
        Some(t) => t.min(detected_tier()) as u8 + 1,
    };
    FORCED.store(v, Ordering::Release);
}

/// The tier the next stage dispatch will use: the [`force_tier`] override
/// if set, otherwise [`detected_tier`].
pub fn active_tier() -> SimdTier {
    match FORCED.load(Ordering::Acquire) {
        1 => SimdTier::Scalar,
        2 => SimdTier::Avx2,
        3 => SimdTier::Avx512,
        _ => detected_tier(),
    }
}

/// Space-separated list of the detected CPU SIMD features relevant to the
/// kernels (`fftbench` stamps it into its reports so cross-host
/// comparisons are honest). `"baseline"` when none of them are
/// present.
pub fn detected_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut out = Vec::new();
        macro_rules! probe {
            ($($f:tt),*) => {
                $(if std::arch::is_x86_feature_detected!($f) { out.push($f); })*
            };
        }
        probe!("sse4.2", "avx", "avx2", "fma", "avx512f", "avx512dq", "avx512vl");
        if out.is_empty() {
            "baseline".to_string()
        } else {
            out.join(" ")
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "baseline".to_string()
    }
}

/// Runs one Stockham stage through the widest kernel `tier` allows, falling
/// back per stage: AVX-512 handles `s` divisible by 4 (and `s == 1` radix-8
/// with `m` divisible by 4), AVX2 the same with 2, everything else — odd
/// `s` or `m`, radix 7, tiny first stages, non-x86 hosts, the scalar tier —
/// returns `false` so the caller runs the scalar stage body.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn run_stage(
    tier: SimdTier,
    src: &[C64],
    dst: &mut [C64],
    st: &StockhamStage,
    tw: &[C64],
    inverse: bool,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match tier {
            SimdTier::Scalar => false,
            // SAFETY: the tier came from `active_tier`, which clamps every
            // request and override to `detected_tier()`, so the required
            // CPU features are present at runtime.
            SimdTier::Avx2 => unsafe { x86::k256::run(src, dst, st, tw, inverse) },
            // SAFETY: as above — Avx512 is only ever active when avx512f
            // was detected on this host.
            SimdTier::Avx512 => unsafe { x86::run_avx512(src, dst, st, tw, inverse) },
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Forward/inverse twiddle conjugation, same as the scalar engine's.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn cj<const INV: bool>(w: C64) -> C64 {
    if INV {
        w.conj()
    } else {
        w
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::cj;
    use crate::complex::C64;
    use crate::stockham::{C5_1, C5_2, S3, S5_1, S5_2};
    use crate::twiddle::StockhamStage;

    /// cos(π/4) = sin(π/4), the radix-8 `ω₈` constant (same as scalar).
    const H: f64 = std::f64::consts::FRAC_1_SQRT_2;

    /// AVX2 vector primitives: 2 interleaved complex per `__m256d`.
    ///
    /// Every arithmetic primitive is elementwise (or a pure shuffle/sign
    /// flip), so lane `l` of any result is bit-identical to running the
    /// scalar formula on lane `l`'s inputs.
    mod p256 {
        use core::arch::x86_64::*;

        pub type V = __m256d;
        /// Complex elements per vector.
        pub const LANES: usize = 2;

        /// Loads `LANES` consecutive complex elements starting at `s[i]`.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn load(s: &[super::C64], i: usize) -> V {
            debug_assert!(i + LANES <= s.len());
            // SAFETY: bounds debug-asserted; callers (the stage kernels)
            // only index within the stage's pre-sliced rows.
            unsafe { _mm256_loadu_pd(s.as_ptr().add(i) as *const f64) }
        }

        /// Stores `LANES` consecutive complex elements to `d[i..]`.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn store(d: &mut [super::C64], i: usize, v: V) {
            debug_assert!(i + LANES <= d.len());
            // SAFETY: bounds debug-asserted; exclusive `&mut` access.
            unsafe { _mm256_storeu_pd(d.as_mut_ptr().add(i) as *mut f64, v) }
        }

        /// Stores lane `l` (one complex element) to `d[base + l·stride]` —
        /// the scatter side of the `s == 1` first-stage kernel, where each
        /// butterfly's outputs land 8 elements apart.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn store_lanes(d: &mut [super::C64], base: usize, stride: usize, v: V) {
            debug_assert!(base + (LANES - 1) * stride < d.len());
            // SAFETY: bounds debug-asserted; exclusive `&mut` access; each
            // 128-bit half is one complex element.
            unsafe {
                let p = d.as_mut_ptr();
                _mm_storeu_pd(p.add(base) as *mut f64, _mm256_castpd256_pd128(v));
                _mm_storeu_pd(
                    p.add(base + stride) as *mut f64,
                    _mm256_extractf128_pd::<1>(v),
                );
            }
        }

        /// `(wr, wi)` twiddle vectors for the `s == 1` kernel: lane `l`
        /// gets `cj(t[base + l·stride])` duplicated into both components.
        /// Conjugation happens scalar-side (a sign flip — exact).
        #[inline]
        #[target_feature(enable = "avx2")]
        #[expect(
            clippy::indexing_slicing,
            reason = "the radix-8 first stage passes `base + stride` below `7m`, the twiddle table's length"
        )]
        pub fn tw_lanes<const INV: bool>(t: &[super::C64], base: usize, stride: usize) -> (V, V) {
            let w0 = super::cj::<INV>(t[base]);
            let w1 = super::cj::<INV>(t[base + stride]);
            (
                _mm256_setr_pd(w0.re, w0.re, w1.re, w1.re),
                _mm256_setr_pd(w0.im, w0.im, w1.im, w1.im),
            )
        }

        /// All-lanes broadcast of one `f64`.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn splat(x: f64) -> V {
            _mm256_set1_pd(x)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn add(a: V, b: V) -> V {
            _mm256_add_pd(a, b)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn sub(a: V, b: V) -> V {
            _mm256_sub_pd(a, b)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn mul(a: V, b: V) -> V {
            _mm256_mul_pd(a, b)
        }

        /// `[a0-b0, a1+b1, a2-b2, a3+b3]` — the complex-multiply combine.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn addsub(a: V, b: V) -> V {
            _mm256_addsub_pd(a, b)
        }

        /// Swaps re/im within each complex element.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn swap_pairs(a: V) -> V {
            _mm256_permute_pd::<0b0101>(a)
        }

        /// Sign-flips the real (even) f64 lanes.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn neg_re(a: V) -> V {
            _mm256_xor_pd(a, _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0))
        }

        /// Sign-flips the imaginary (odd) f64 lanes.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn neg_im(a: V) -> V {
            _mm256_xor_pd(a, _mm256_setr_pd(0.0, -0.0, 0.0, -0.0))
        }
    }

    /// AVX-512F vector primitives: 4 interleaved complex per `__m512d`.
    /// Mirrors [`p256`] exactly; `avx512f` implies `avx2`, so the 128/256
    /// bit extract path of `store_lanes` stays legal.
    mod p512 {
        use core::arch::x86_64::*;

        pub type V = __m512d;
        /// Complex elements per vector.
        pub const LANES: usize = 4;

        /// Loads `LANES` consecutive complex elements starting at `s[i]`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn load(s: &[super::C64], i: usize) -> V {
            debug_assert!(i + LANES <= s.len());
            // SAFETY: bounds debug-asserted; callers only index within the
            // stage's pre-sliced rows.
            unsafe { _mm512_loadu_pd(s.as_ptr().add(i) as *const f64) }
        }

        /// Stores `LANES` consecutive complex elements to `d[i..]`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn store(d: &mut [super::C64], i: usize, v: V) {
            debug_assert!(i + LANES <= d.len());
            // SAFETY: bounds debug-asserted; exclusive `&mut` access.
            unsafe { _mm512_storeu_pd(d.as_mut_ptr().add(i) as *mut f64, v) }
        }

        /// Stores lane `l` (one complex element) to `d[base + l·stride]`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn store_lanes(d: &mut [super::C64], base: usize, stride: usize, v: V) {
            debug_assert!(base + (LANES - 1) * stride < d.len());
            let lo = _mm512_extractf64x4_pd::<0>(v);
            let hi = _mm512_extractf64x4_pd::<1>(v);
            // SAFETY: bounds debug-asserted; exclusive `&mut` access; each
            // 128-bit quarter is one complex element.
            unsafe {
                let p = d.as_mut_ptr();
                _mm_storeu_pd(p.add(base) as *mut f64, _mm256_castpd256_pd128(lo));
                _mm_storeu_pd(
                    p.add(base + stride) as *mut f64,
                    _mm256_extractf128_pd::<1>(lo),
                );
                _mm_storeu_pd(
                    p.add(base + 2 * stride) as *mut f64,
                    _mm256_castpd256_pd128(hi),
                );
                _mm_storeu_pd(
                    p.add(base + 3 * stride) as *mut f64,
                    _mm256_extractf128_pd::<1>(hi),
                );
            }
        }

        /// `(wr, wi)` twiddle vectors: lane `l` gets `cj(t[base+l·stride])`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        #[expect(
            clippy::indexing_slicing,
            reason = "the radix-8 first stage passes `base + 3 * stride` below `7m`, the twiddle table's length"
        )]
        pub fn tw_lanes<const INV: bool>(t: &[super::C64], base: usize, stride: usize) -> (V, V) {
            let w0 = super::cj::<INV>(t[base]);
            let w1 = super::cj::<INV>(t[base + stride]);
            let w2 = super::cj::<INV>(t[base + 2 * stride]);
            let w3 = super::cj::<INV>(t[base + 3 * stride]);
            (
                _mm512_setr_pd(w0.re, w0.re, w1.re, w1.re, w2.re, w2.re, w3.re, w3.re),
                _mm512_setr_pd(w0.im, w0.im, w1.im, w1.im, w2.im, w2.im, w3.im, w3.im),
            )
        }

        /// All-lanes broadcast of one `f64`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn splat(x: f64) -> V {
            _mm512_set1_pd(x)
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn add(a: V, b: V) -> V {
            _mm512_add_pd(a, b)
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn sub(a: V, b: V) -> V {
            _mm512_sub_pd(a, b)
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn mul(a: V, b: V) -> V {
            _mm512_mul_pd(a, b)
        }

        /// Bitwise `a ⊕ m` routed through the integer domain:
        /// `_mm512_xor_pd` needs avx512dq, but the same XOR on the raw bit
        /// pattern is plain avx512f and the casts are free (reinterpret).
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn xor(a: V, m: V) -> V {
            _mm512_castsi512_pd(_mm512_xor_si512(
                _mm512_castpd_si512(a),
                _mm512_castpd_si512(m),
            ))
        }

        /// AVX-512 has no `addsub`; `a + (b ⊕ signmask_even)` is the same
        /// operation bit for bit (`x − y ≡ x + (−y)` in IEEE 754).
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn addsub(a: V, b: V) -> V {
            let m = _mm512_setr_pd(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0);
            _mm512_add_pd(a, xor(b, m))
        }

        /// Swaps re/im within each complex element.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn swap_pairs(a: V) -> V {
            _mm512_permute_pd::<0b0101_0101>(a)
        }

        /// Sign-flips the real (even) f64 lanes.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn neg_re(a: V) -> V {
            let m = _mm512_setr_pd(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0);
            xor(a, m)
        }

        /// Sign-flips the imaginary (odd) f64 lanes.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn neg_im(a: V) -> V {
            let m = _mm512_setr_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
            xor(a, m)
        }
    }

    /// Generates one tier's stage kernels over a primitive module. The
    /// bodies transliterate the scalar stages in `stockham.rs` one
    /// operation at a time — any edit there must be mirrored here (the
    /// `to_bits` equivalence suite catches divergence).
    macro_rules! stockham_simd_kernels {
        ($kname:ident, $p:ident, $feat:literal) => {
            pub(super) mod $kname {
                use super::{cj, $p, StockhamStage, C5_1, C5_2, C64, H, S3, S5_1, S5_2};

                /// `±i·z` per lane: swap re/im, flip the sign the scalar
                /// `rot` flips. Copies and negations only — exact.
                #[inline]
                #[target_feature(enable = $feat)]
                fn rot<const INV: bool>(z: $p::V) -> $p::V {
                    let sw = $p::swap_pairs(z);
                    if INV {
                        $p::neg_re(sw)
                    } else {
                        $p::neg_im(sw)
                    }
                }

                /// `a·w` with `w` pre-split into `(wr, wi)` broadcast
                /// vectors: `addsub(a·wr, swap(a)·wi)` gives per lane
                /// `(a.re·w.re − a.im·w.im, a.im·w.re + a.re·w.im)` — the
                /// scalar formula up to the commutative `+`.
                #[inline]
                #[target_feature(enable = $feat)]
                fn cmul(a: $p::V, wr: $p::V, wi: $p::V) -> $p::V {
                    $p::addsub($p::mul(a, wr), $p::mul($p::swap_pairs(a), wi))
                }

                /// Splits a scalar twiddle into `(wr, wi)` broadcasts with
                /// direction conjugation applied scalar-side.
                #[inline]
                #[target_feature(enable = $feat)]
                fn tw_splat<const INV: bool>(w: C64) -> ($p::V, $p::V) {
                    let w = cj::<INV>(w);
                    ($p::splat(w.re), $p::splat(w.im))
                }

                /// Radix-2 stage, vectorized across the contiguous `q` loop.
                #[target_feature(enable = $feat)]
                #[expect(
                    clippy::indexing_slicing,
                    reason = "`src` and `dst` hold `2 * m * s` elements, so `2 * o + 2 * s` stays within them for `p_row < m`"
                )]
                pub fn stage2<const INV: bool>(
                    src: &[C64],
                    dst: &mut [C64],
                    st: &StockhamStage,
                    tw: &[C64],
                ) {
                    let (m, s) = (st.m, st.s);
                    debug_assert!(s % $p::LANES == 0);
                    let (lo, hi) = src.split_at(m * s);
                    for (p_row, &twp) in tw.iter().enumerate().take(m) {
                        let (wr, wi) = tw_splat::<INV>(twp);
                        let o = p_row * s;
                        let a = &lo[o..o + s];
                        let b = &hi[o..o + s];
                        let (d0, d1) = dst[2 * o..2 * o + 2 * s].split_at_mut(s);
                        let mut q = 0;
                        while q < s {
                            let x = $p::load(a, q);
                            let y = $p::load(b, q);
                            $p::store(d0, q, $p::add(x, y));
                            $p::store(d1, q, cmul($p::sub(x, y), wr, wi));
                            q += $p::LANES;
                        }
                    }
                }

                /// Radix-4 stage, vectorized across the contiguous `q` loop.
                #[target_feature(enable = $feat)]
                #[expect(
                    clippy::indexing_slicing,
                    reason = "`src` and `dst` hold `4 * m * s` elements and `tw` holds `3 * m` twiddles"
                )]
                pub fn stage4<const INV: bool>(
                    src: &[C64],
                    dst: &mut [C64],
                    st: &StockhamStage,
                    tw: &[C64],
                ) {
                    let (m, s) = (st.m, st.s);
                    debug_assert!(s % $p::LANES == 0);
                    let ms = m * s;
                    for p_row in 0..m {
                        let (w1r, w1i) = tw_splat::<INV>(tw[3 * p_row]);
                        let (w2r, w2i) = tw_splat::<INV>(tw[3 * p_row + 1]);
                        let (w3r, w3i) = tw_splat::<INV>(tw[3 * p_row + 2]);
                        let o = p_row * s;
                        let x0 = &src[o..o + s];
                        let x1 = &src[ms + o..ms + o + s];
                        let x2 = &src[2 * ms + o..2 * ms + o + s];
                        let x3 = &src[3 * ms + o..3 * ms + o + s];
                        let (d01, d23) = dst[4 * o..4 * o + 4 * s].split_at_mut(2 * s);
                        let (d0, d1) = d01.split_at_mut(s);
                        let (d2, d3) = d23.split_at_mut(s);
                        let mut q = 0;
                        while q < s {
                            let a = $p::load(x0, q);
                            let b = $p::load(x1, q);
                            let c = $p::load(x2, q);
                            let d = $p::load(x3, q);
                            let apc = $p::add(a, c);
                            let amc = $p::sub(a, c);
                            let bpd = $p::add(b, d);
                            let ibmd = rot::<INV>($p::sub(b, d));
                            $p::store(d0, q, $p::add(apc, bpd));
                            $p::store(d1, q, cmul($p::add(amc, ibmd), w1r, w1i));
                            $p::store(d2, q, cmul($p::sub(apc, bpd), w2r, w2i));
                            $p::store(d3, q, cmul($p::sub(amc, ibmd), w3r, w3i));
                            q += $p::LANES;
                        }
                    }
                }

                /// Radix-3 stage, vectorized across the contiguous `q` loop
                /// (`bfly3` of the scalar engine, one operation at a time).
                #[target_feature(enable = $feat)]
                #[expect(
                    clippy::indexing_slicing,
                    reason = "`src` and `dst` hold `3 * m * s` elements and `tw` holds `2 * m` twiddles"
                )]
                pub fn stage3<const INV: bool>(
                    src: &[C64],
                    dst: &mut [C64],
                    st: &StockhamStage,
                    tw: &[C64],
                ) {
                    let (m, s) = (st.m, st.s);
                    debug_assert!(s % $p::LANES == 0);
                    let ms = m * s;
                    let (s3, half) = ($p::splat(S3), $p::splat(0.5));
                    for p_row in 0..m {
                        let (w1r, w1i) = tw_splat::<INV>(tw[2 * p_row]);
                        let (w2r, w2i) = tw_splat::<INV>(tw[2 * p_row + 1]);
                        let o = p_row * s;
                        let x0 = &src[o..o + s];
                        let x1 = &src[ms + o..ms + o + s];
                        let x2 = &src[2 * ms + o..2 * ms + o + s];
                        let (d0, d12) = dst[3 * o..3 * o + 3 * s].split_at_mut(s);
                        let (d1, d2) = d12.split_at_mut(s);
                        let mut q = 0;
                        while q < s {
                            let a = $p::load(x0, q);
                            let b = $p::load(x1, q);
                            let c = $p::load(x2, q);
                            let t = $p::add(b, c);
                            let u = rot::<INV>($p::mul($p::sub(b, c), s3));
                            let h = $p::sub(a, $p::mul(t, half));
                            $p::store(d0, q, $p::add(a, t));
                            $p::store(d1, q, cmul($p::add(h, u), w1r, w1i));
                            $p::store(d2, q, cmul($p::sub(h, u), w2r, w2i));
                            q += $p::LANES;
                        }
                    }
                }

                /// Radix-5 stage, vectorized across the contiguous `q` loop
                /// (`bfly5` of the scalar engine, one operation at a time).
                #[target_feature(enable = $feat)]
                #[expect(
                    clippy::indexing_slicing,
                    reason = "`src` and `dst` hold `5 * m * s` elements and `tw` holds `4 * m` twiddles"
                )]
                pub fn stage5<const INV: bool>(
                    src: &[C64],
                    dst: &mut [C64],
                    st: &StockhamStage,
                    tw: &[C64],
                ) {
                    let (m, s) = (st.m, st.s);
                    debug_assert!(s % $p::LANES == 0);
                    let ms = m * s;
                    let (c1, c2) = ($p::splat(C5_1), $p::splat(C5_2));
                    let (s1, s2) = ($p::splat(S5_1), $p::splat(S5_2));
                    for p_row in 0..m {
                        let t = &tw[4 * p_row..4 * p_row + 4];
                        let w: [($p::V, $p::V); 4] = [
                            tw_splat::<INV>(t[0]),
                            tw_splat::<INV>(t[1]),
                            tw_splat::<INV>(t[2]),
                            tw_splat::<INV>(t[3]),
                        ];
                        let o = p_row * s;
                        let x0 = &src[o..o + s];
                        let x1 = &src[ms + o..ms + o + s];
                        let x2 = &src[2 * ms + o..2 * ms + o + s];
                        let x3 = &src[3 * ms + o..3 * ms + o + s];
                        let x4 = &src[4 * ms + o..4 * ms + o + s];
                        let (d0, rest) = dst[5 * o..5 * o + 5 * s].split_at_mut(s);
                        let (d12, d34) = rest.split_at_mut(2 * s);
                        let (d1, d2) = d12.split_at_mut(s);
                        let (d3, d4) = d34.split_at_mut(s);
                        let mut q = 0;
                        while q < s {
                            let a = $p::load(x0, q);
                            let t1 = $p::add($p::load(x1, q), $p::load(x4, q));
                            let t2 = $p::add($p::load(x2, q), $p::load(x3, q));
                            let u1 = $p::sub($p::load(x1, q), $p::load(x4, q));
                            let u2 = $p::sub($p::load(x2, q), $p::load(x3, q));
                            let a1 = $p::add($p::add(a, $p::mul(t1, c1)), $p::mul(t2, c2));
                            let a2 = $p::add($p::add(a, $p::mul(t1, c2)), $p::mul(t2, c1));
                            let b1 = rot::<INV>($p::add($p::mul(u1, s1), $p::mul(u2, s2)));
                            let b2 = rot::<INV>($p::sub($p::mul(u1, s2), $p::mul(u2, s1)));
                            $p::store(d0, q, $p::add($p::add(a, t1), t2));
                            $p::store(d1, q, cmul($p::add(a1, b1), w[0].0, w[0].1));
                            $p::store(d2, q, cmul($p::add(a2, b2), w[1].0, w[1].1));
                            $p::store(d3, q, cmul($p::sub(a2, b2), w[2].0, w[2].1));
                            $p::store(d4, q, cmul($p::sub(a1, b1), w[3].0, w[3].1));
                            q += $p::LANES;
                        }
                    }
                }

                /// Radix-8 stage (general `s`), vectorized across `q`.
                #[target_feature(enable = $feat)]
                #[expect(
                    clippy::indexing_slicing,
                    reason = "`src` and `dst` hold `8 * m * s` elements and `tw` holds `7 * m` twiddles"
                )]
                pub fn stage8<const INV: bool>(
                    src: &[C64],
                    dst: &mut [C64],
                    st: &StockhamStage,
                    tw: &[C64],
                ) {
                    let (m, s) = (st.m, st.s);
                    debug_assert!(s % $p::LANES == 0);
                    let ms = m * s;
                    let (w81, w83) = if INV {
                        (C64::new(H, H), C64::new(-H, H))
                    } else {
                        (C64::new(H, -H), C64::new(-H, -H))
                    };
                    let (w81r, w81i) = ($p::splat(w81.re), $p::splat(w81.im));
                    let (w83r, w83i) = ($p::splat(w83.re), $p::splat(w83.im));
                    for p_row in 0..m {
                        let t = &tw[7 * p_row..7 * p_row + 7];
                        let w: [($p::V, $p::V); 7] = [
                            tw_splat::<INV>(t[0]),
                            tw_splat::<INV>(t[1]),
                            tw_splat::<INV>(t[2]),
                            tw_splat::<INV>(t[3]),
                            tw_splat::<INV>(t[4]),
                            tw_splat::<INV>(t[5]),
                            tw_splat::<INV>(t[6]),
                        ];
                        let o = p_row * s;
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
                        let mut q = 0;
                        while q < s {
                            let e02 = $p::add($p::load(x0, q), $p::load(x4, q));
                            let e13 = $p::add($p::load(x2, q), $p::load(x6, q));
                            let em02 = $p::sub($p::load(x0, q), $p::load(x4, q));
                            let iem13 = rot::<INV>($p::sub($p::load(x2, q), $p::load(x6, q)));
                            let e0 = $p::add(e02, e13);
                            let e1 = $p::add(em02, iem13);
                            let e2 = $p::sub(e02, e13);
                            let e3 = $p::sub(em02, iem13);

                            let o02 = $p::add($p::load(x1, q), $p::load(x5, q));
                            let o13 = $p::add($p::load(x3, q), $p::load(x7, q));
                            let om02 = $p::sub($p::load(x1, q), $p::load(x5, q));
                            let iom13 = rot::<INV>($p::sub($p::load(x3, q), $p::load(x7, q)));
                            let f0 = $p::add(o02, o13);
                            let f1 = cmul($p::add(om02, iom13), w81r, w81i);
                            let f2 = rot::<INV>($p::sub(o02, o13));
                            let f3 = cmul($p::sub(om02, iom13), w83r, w83i);

                            $p::store(d0, q, $p::add(e0, f0));
                            $p::store(d1, q, cmul($p::add(e1, f1), w[0].0, w[0].1));
                            $p::store(d2, q, cmul($p::add(e2, f2), w[1].0, w[1].1));
                            $p::store(d3, q, cmul($p::add(e3, f3), w[2].0, w[2].1));
                            $p::store(d4, q, cmul($p::sub(e0, f0), w[3].0, w[3].1));
                            $p::store(d5, q, cmul($p::sub(e1, f1), w[4].0, w[4].1));
                            $p::store(d6, q, cmul($p::sub(e2, f2), w[5].0, w[5].1));
                            $p::store(d7, q, cmul($p::sub(e3, f3), w[6].0, w[6].1));
                            q += $p::LANES;
                        }
                    }
                }

                /// Radix-8 first stage (`s == 1`), vectorized across the
                /// butterfly index `p` instead: loads of `x_j` become
                /// contiguous (`src[j·m + p..]`), twiddles differ per lane
                /// (`tw_lanes`), and each output vector scatters its lanes
                /// 8 elements apart (`store_lanes`).
                #[target_feature(enable = $feat)]
                pub fn stage8_s1<const INV: bool>(
                    src: &[C64],
                    dst: &mut [C64],
                    st: &StockhamStage,
                    tw: &[C64],
                ) {
                    let m = st.m;
                    debug_assert!(st.s == 1 && m % $p::LANES == 0);
                    let (w81, w83) = if INV {
                        (C64::new(H, H), C64::new(-H, H))
                    } else {
                        (C64::new(H, -H), C64::new(-H, -H))
                    };
                    let (w81r, w81i) = ($p::splat(w81.re), $p::splat(w81.im));
                    let (w83r, w83i) = ($p::splat(w83.re), $p::splat(w83.im));
                    let mut p = 0;
                    while p < m {
                        let x0 = $p::load(src, p);
                        let x1 = $p::load(src, p + m);
                        let x2 = $p::load(src, p + 2 * m);
                        let x3 = $p::load(src, p + 3 * m);
                        let x4 = $p::load(src, p + 4 * m);
                        let x5 = $p::load(src, p + 5 * m);
                        let x6 = $p::load(src, p + 6 * m);
                        let x7 = $p::load(src, p + 7 * m);

                        let e02 = $p::add(x0, x4);
                        let e13 = $p::add(x2, x6);
                        let em02 = $p::sub(x0, x4);
                        let iem13 = rot::<INV>($p::sub(x2, x6));
                        let e0 = $p::add(e02, e13);
                        let e1 = $p::add(em02, iem13);
                        let e2 = $p::sub(e02, e13);
                        let e3 = $p::sub(em02, iem13);

                        let o02 = $p::add(x1, x5);
                        let o13 = $p::add(x3, x7);
                        let om02 = $p::sub(x1, x5);
                        let iom13 = rot::<INV>($p::sub(x3, x7));
                        let f0 = $p::add(o02, o13);
                        let f1 = cmul($p::add(om02, iom13), w81r, w81i);
                        let f2 = rot::<INV>($p::sub(o02, o13));
                        let f3 = cmul($p::sub(om02, iom13), w83r, w83i);

                        let outs = [
                            $p::add(e0, f0),
                            $p::add(e1, f1),
                            $p::add(e2, f2),
                            $p::add(e3, f3),
                            $p::sub(e0, f0),
                            $p::sub(e1, f1),
                            $p::sub(e2, f2),
                            $p::sub(e3, f3),
                        ];
                        $p::store_lanes(dst, 8 * p, 8, outs[0]);
                        for (j, &v) in outs.iter().enumerate().skip(1) {
                            let (wr, wi) = $p::tw_lanes::<INV>(tw, 7 * p + (j - 1), 7);
                            $p::store_lanes(dst, 8 * p + j, 8, cmul(v, wr, wi));
                        }
                        p += $p::LANES;
                    }
                }

                /// Runs the stage on this tier if its lane count divides
                /// the stage geometry — `s` for the vector-across-`q`
                /// kernels, `m` for the `s == 1` radix-8 first stage — so
                /// no vector loop ever sees a tail. Smooth lengths bring
                /// odd `m` (40 = 8·5) and odd `s` (45 = 3·3·5); those
                /// stages, and radix 7, return `false` for the caller to
                /// try a narrower tier or the scalar body.
                #[target_feature(enable = $feat)]
                pub fn run(
                    src: &[C64],
                    dst: &mut [C64],
                    st: &StockhamStage,
                    tw: &[C64],
                    inverse: bool,
                ) -> bool {
                    if st.radix == 8 && st.s == 1 && st.m.is_multiple_of($p::LANES) {
                        if inverse {
                            stage8_s1::<true>(src, dst, st, tw)
                        } else {
                            stage8_s1::<false>(src, dst, st, tw)
                        }
                        return true;
                    }
                    if !st.s.is_multiple_of($p::LANES) {
                        return false;
                    }
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
                        _ => return false,
                    }
                    true
                }
            }
        };
    }

    stockham_simd_kernels!(k256, p256, "avx2");
    stockham_simd_kernels!(k512, p512, "avx512f");

    /// AVX-512 per-stage dispatch: full-width kernels where four
    /// butterflies fit, otherwise the stage drops to the AVX2 kernels
    /// (legal: `avx512f` implies `avx2`), and from there to scalar.
    #[target_feature(enable = "avx512f")]
    pub(super) fn run_avx512(
        src: &[C64],
        dst: &mut [C64],
        st: &StockhamStage,
        tw: &[C64],
        inverse: bool,
    ) -> bool {
        k512::run(src, dst, st, tw, inverse) || k256::run(src, dst, st, tw, inverse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_ordering_and_lanes() {
        assert!(SimdTier::Scalar < SimdTier::Avx2);
        assert!(SimdTier::Avx2 < SimdTier::Avx512);
        assert_eq!(SimdTier::Avx512.name(), "avx512");
    }

    #[test]
    fn forced_tier_clamps_to_detected_and_resets() {
        force_tier(Some(SimdTier::Avx512));
        assert!(active_tier() <= detected_tier());
        force_tier(Some(SimdTier::Scalar));
        assert_eq!(active_tier(), SimdTier::Scalar);
        force_tier(None);
        assert_eq!(active_tier(), detected_tier());
    }

    #[test]
    fn scalar_is_always_available() {
        assert!(tier_available(SimdTier::Scalar));
        assert!(active_tier() <= detected_tier());
    }

    #[test]
    fn features_string_is_nonempty() {
        assert!(!detected_features().is_empty());
    }
}
