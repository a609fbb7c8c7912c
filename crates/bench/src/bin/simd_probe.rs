//! Feature-detection smoke: prints what the SIMD dispatcher sees and which
//! tier each engine path would run, then proves the dispatch is live by
//! transforming once per available tier and cross-checking bit-identity.
//!
//! Usage: `cargo run -q -p fft-bench --bin simd_probe`. Exits non-zero if
//! any available tier's output diverges from scalar — a one-second version
//! of the full `simd_equivalence` suite, cheap enough for every CI run.
//! Respects `FFT_SIMD`, so CI can probe each setting's resolved tier.

use fftkern::plan::{Layout, Plan1d};
use fftkern::simd::{self, SimdTier};
use fftkern::{Direction, C64};

fn main() {
    println!("cpu features : {}", simd::detected_features());
    println!("detected tier: {}", simd::detected_tier().name());
    println!(
        "FFT_SIMD     : {}",
        fftobs::env::raw_var("FFT_SIMD").unwrap_or_else(|| "(unset)".into())
    );
    println!("active tier  : {}", simd::active_tier().name());

    // 512 = 8·8·8 covers the pow2 kernels; 60 = 4·3·5 and 480 = 8·4·3·5 put
    // the radix-3/5 stage bodies and an odd-`m` first stage in front of
    // whatever tier this host has. The two strided batches run as
    // lane-interleaved panels: 64 × 70 is full panels plus a ragged tail,
    // 60 × 6 one panel narrower than two AVX-512 vectors.
    let strided = |n, batch| {
        let l = Layout::strided(batch);
        Plan1d::with_layout(n, batch, l, l)
    };
    let plans: Vec<Plan1d> = [512, 60, 480]
        .into_iter()
        .map(|n| Plan1d::contiguous(n, 4))
        .chain([strided(64, 70), strided(60, 6)])
        .collect();
    println!("kernel (512×4): {}", plans[0].kernel_desc());
    let run = |tier: SimdTier| {
        simd::force_tier(Some(tier));
        let mut out = Vec::new();
        for plan in &plans {
            let mut d: Vec<C64> = (0..plan.required_input_len())
                .map(|i| C64::new((0.3 * i as f64).sin(), (0.7 * i as f64).cos()))
                .collect();
            plan.execute_inplace(&mut d, Direction::Forward);
            out.extend(d);
        }
        simd::force_tier(None);
        out
    };
    let reference = run(SimdTier::Scalar);
    let mut ok = true;
    for tier in [SimdTier::Avx2, SimdTier::Avx512] {
        if !simd::tier_available(tier) {
            println!("tier {:<7}: not available on this host", tier.name());
            continue;
        }
        let got = run(tier);
        let identical = got
            .iter()
            .zip(&reference)
            .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
        println!(
            "tier {:<7}: {}",
            tier.name(),
            if identical {
                "bit-identical to scalar (n = 512, 60, 480; strided 64×70, 60×6)"
            } else {
                "DIVERGES from scalar"
            }
        );
        ok &= identical;
    }
    if !ok {
        eprintln!("FAIL: SIMD tier output diverges from scalar");
        std::process::exit(1);
    }
}
