//! Thread-safe plan cache.
//!
//! Distributed executions rebuild the same batched 1-D plans once per axis
//! per rank per call — hundreds of identical `Plan1d::with_layout`
//! constructions per timed FFT, each recomputing twiddle tables and (for
//! Bluestein sizes) whole convolution kernels. The cache interns plans by
//! `(shape, batch, input layout, output layout)` and hands out `Arc`s, so a
//! warm path pays one `BTreeMap` lookup instead of a plan build.
//!
//! Plans are direction-agnostic by construction (twiddles are conjugated at
//! execute time), so one cached plan serves both [`Direction::Forward`](crate::Direction::Forward) and
//! [`Direction::Inverse`](crate::Direction::Inverse) and direction is
//! deliberately not part of the key.
//!
//! A process-wide instance is available via [`plan_cache`]; per-context
//! caches can be created with [`PlanCache::new`] where isolation matters
//! (e.g. statistics in tests).

use crate::plan::{Layout, Plan1d, Plan3d};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Key identifying a batched, strided 1-D plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PlanKey1d {
    /// Transform length.
    pub n: usize,
    /// Transforms per execution.
    pub batch: usize,
    /// Input stride/distance layout.
    pub input: Layout,
    /// Output stride/distance layout.
    pub output: Layout,
}

/// Thread-safe cache of FFT plans, keyed by shape and layout.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans1d: Mutex<BTreeMap<PlanKey1d, Arc<Plan1d>>>,
    plans3d: Mutex<BTreeMap<(usize, usize, usize), Arc<Plan3d>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached 1-D plan for the key, building it on first use.
    pub fn plan1d(&self, n: usize, batch: usize, input: Layout, output: Layout) -> Arc<Plan1d> {
        let key = PlanKey1d {
            n,
            batch,
            input,
            output,
        };
        self.intern(&self.plans1d, key, || {
            Plan1d::with_layout(n, batch, input, output)
        })
    }

    /// Returns the cached contiguous 1-D plan (stride 1, rows back to back).
    pub fn plan1d_contiguous(&self, n: usize, batch: usize) -> Arc<Plan1d> {
        self.plan1d(n, batch, Layout::contiguous(n), Layout::contiguous(n))
    }

    /// Returns the cached 3-D plan for an `n0 × n1 × n2` row-major array.
    pub fn plan3d(&self, n0: usize, n1: usize, n2: usize) -> Arc<Plan3d> {
        self.intern(&self.plans3d, (n0, n1, n2), || Plan3d::new(n0, n1, n2))
    }

    /// The plan under `key` in `map`, built on first use. The build runs
    /// with the map unlocked, because building takes the twiddle-table locks
    /// and no lock is taken while another is held (DESIGN.md §12). If two
    /// threads build one key at once, the first insert wins and the other
    /// counts a hit, so misses still count the plans cached.
    fn intern<K: Ord, P>(
        &self,
        map: &Mutex<BTreeMap<K, Arc<P>>>,
        key: K,
        make: impl FnOnce() -> P,
    ) -> Arc<P> {
        let lock = || map.lock().unwrap_or_else(|e| e.into_inner());
        let cached = lock().get(&key).map(Arc::clone);
        if let Some(plan) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return plan;
        }
        let built = Arc::new(make());
        match lock().entry(key) {
            Entry::Occupied(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Arc::clone(e.get())
            }
            Entry::Vacant(e) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Arc::clone(e.insert(built))
            }
        }
    }

    /// Cache hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= distinct plans built) since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of plans currently cached across all dimensionalities.
    pub fn len(&self) -> usize {
        self.plans1d.lock().unwrap_or_else(|e| e.into_inner()).len()
            + self.plans3d.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when no plan has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached plan (statistics are kept).
    pub fn clear(&self) {
        self.plans1d
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.plans3d
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }
}

/// The process-wide plan cache.
pub fn plan_cache() -> &'static PlanCache {
    static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
    GLOBAL.get_or_init(PlanCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_abs_diff;
    use crate::plan::Direction;
    use crate::C64;

    fn signal(n: usize) -> Vec<C64> {
        (0..n)
            .map(|i| C64::new((0.7 * i as f64).sin(), (0.2 * i as f64).cos()))
            .collect()
    }

    #[test]
    fn second_request_hits_and_shares() {
        let cache = PlanCache::new();
        let a = cache.plan1d_contiguous(24, 3);
        let b = cache.plan1d_contiguous(24, 3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_layouts_get_distinct_plans() {
        let cache = PlanCache::new();
        let _ = cache.plan1d_contiguous(16, 4);
        let _ = cache.plan1d(16, 4, Layout::strided(4), Layout::strided(4));
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn cached_plan_matches_cold_plan() {
        let cache = PlanCache::new();
        for n in [16usize, 60, 13] {
            let warm = cache.plan1d_contiguous(n, 2);
            let warm2 = cache.plan1d_contiguous(n, 2);
            let cold = Plan1d::contiguous(n, 2);
            let x = signal(2 * n);
            let mut a = x.clone();
            let mut b = x;
            warm2.execute_inplace(&mut a, Direction::Forward);
            cold.execute_inplace(&mut b, Direction::Forward);
            let bits = |v: &[C64]| -> Vec<(u64, u64)> {
                v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
            };
            assert_eq!(
                bits(&a),
                bits(&b),
                "warm/cold plans disagree bit-for-bit at n={n}"
            );
            assert!(max_abs_diff(&a, &b) == 0.0);
            drop(warm);
        }
    }

    #[test]
    fn plan3d_cache_roundtrip() {
        let cache = PlanCache::new();
        let p = cache.plan3d(4, 4, 4);
        let q = cache.plan3d(4, 4, 4);
        assert!(Arc::ptr_eq(&p, &q));
        let mut scratch = vec![C64::ZERO; p.scratch_elems()];
        let x = signal(64);
        let mut y = x.clone();
        p.execute_scratch(&mut y, Direction::Forward, &mut scratch);
        p.execute_scratch(&mut y, Direction::Inverse, &mut scratch);
        let expect: Vec<C64> = x.iter().map(|v| v.scale(64.0)).collect();
        assert!(max_abs_diff(&y, &expect) < 1e-7 * 64.0);
    }

    #[test]
    fn global_cache_is_shared() {
        let a = plan_cache().plan1d_contiguous(31, 1);
        let b = plan_cache().plan1d_contiguous(31, 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn clear_empties_cache() {
        let cache = PlanCache::new();
        let _ = cache.plan3d(4, 6, 2);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }
}
