//! The **schedule-permutation stress mode**, the one runtime test seam of
//! the simulator: a process-global seed that makes [`crate::Comm`]'s
//! control-plane harvest consume mailbox messages in a seeded pseudo-random
//! member order instead of arrival order. Harvest order is a
//! host-scheduling artifact that must never influence simulated time, so
//! any seed — including none — must produce identical exit times and
//! results. Tests flip seeds and `assert_eq!` the runs to prove it.
//!
//! With the seed unset (the default) a harvest costs one relaxed atomic
//! load and behaviour is unchanged.

use std::sync::atomic::{AtomicU64, Ordering};

/// Seed of the schedule-permutation stress mode. `0` (the default) keeps
/// the production arrival-order harvest.
static SHUFFLE_SEED: AtomicU64 = AtomicU64::new(0);

/// Per-harvest call counter, mixed into the seed so every harvest in a run
/// sees a different permutation.
static SHUFFLE_CALLS: AtomicU64 = AtomicU64::new(0);

/// Sets (nonzero) or clears (zero) the harvest-shuffle seed. Process-global:
/// tests that set it must reset it to `0` afterwards and must not run
/// concurrently with other shuffle-sensitive tests.
pub fn set_shuffle_seed(seed: u64) {
    SHUFFLE_CALLS.store(0, Ordering::Relaxed);
    SHUFFLE_SEED.store(seed, Ordering::Relaxed);
}

/// The permutation of `0..n` the current harvest should drain members in,
/// or `None` when the stress mode is off (or the permutation would be
/// trivial).
pub(crate) fn harvest_permutation(n: usize) -> Option<Vec<usize>> {
    let seed = SHUFFLE_SEED.load(Ordering::Relaxed);
    if seed == 0 || n < 2 {
        return None;
    }
    let call = SHUFFLE_CALLS.fetch_add(1, Ordering::Relaxed);
    let mut state = mix(seed, call);
    let mut perm: Vec<usize> = (0..n).collect();
    // Seeded Fisher-Yates.
    for i in (1..n).rev() {
        state = mix(state, i as u64);
        let j = (state % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    Some(perm)
}

/// SplitMix64-style mixing (independent of `comm::splitmix`, which reserves
/// the low bit for communicator ids).
fn mix(a: u64, b: u64) -> u64 {
    let mut x = a
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(b)
        .wrapping_add(0x2545F4914F6CDD1D);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D049BB133111EB);
    x ^= x >> 31;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_off_by_default_and_seeded_on() {
        set_shuffle_seed(0);
        assert!(harvest_permutation(8).is_none());
        set_shuffle_seed(7);
        let p = harvest_permutation(8).unwrap();
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        // Successive harvests see different permutations.
        let q = harvest_permutation(8).unwrap();
        assert!(p != q || harvest_permutation(8).unwrap() != p);
        set_shuffle_seed(0);
    }
}
