//! Deterministic timing noise.
//!
//! Real per-call MPI timings (Figs. 2, 3, 10 of the paper) show run-to-run
//! variability on top of the structural differences. The simulator scales
//! each message's injection by a small multiplicative jitter, a hash of the
//! message's identity ([`hash_jitter`]), so traces *look* like measured
//! data while remaining bit-for-bit reproducible.

/// Stateless multiplicative jitter keyed by message identity.
///
/// Schedule walkers price the same message from both endpoints and from both
/// the functional engine and the analytic dry-run; a *stateless* hash of
/// `(seed, phase, src, dst)` guarantees every consumer computes the identical
/// factor regardless of evaluation order.
pub fn hash_jitter(seed: u64, phase: u64, src: u64, dst: u64, amplitude: f64) -> f64 {
    if amplitude == 0.0 {
        return 1.0;
    }
    // SplitMix64 over the combined key.
    let mut x = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(phase)
        .wrapping_mul(0xBF58476D1CE4E5B9)
        .wrapping_add(src)
        .wrapping_mul(0x94D049BB133111EB)
        .wrapping_add(dst);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D049BB133111EB);
    x ^= x >> 31;
    let u = (x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0; // [-1, 1]
    1.0 + amplitude * u
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_jitter_is_stateless_and_bounded() {
        let a = hash_jitter(42, 7, 3, 9, 0.05);
        let b = hash_jitter(42, 7, 3, 9, 0.05);
        assert_eq!(a, b);
        assert!((0.95..=1.05).contains(&a));
        assert_ne!(
            hash_jitter(42, 7, 3, 9, 0.05),
            hash_jitter(42, 8, 3, 9, 0.05)
        );
        assert_eq!(hash_jitter(1, 2, 3, 4, 0.0), 1.0);
    }
}
