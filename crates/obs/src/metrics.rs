//! Thread-safe metrics registry: named counters.
//!
//! All storage is atomic; registration takes a short mutex on a `BTreeMap`
//! (names are interned `&'static str`s, so hot paths that hold on to the
//! returned [`Counter`] handle pay only an atomic add).
//! Snapshots are deterministic: entries come out sorted by name.
//!
//! Metrics observe — they never steer. Nothing in the simulation reads a
//! counter back into a timing decision, which is what keeps instrumented
//! runs byte-identical to uninstrumented ones.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One counter in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnap {
    /// Metric name.
    pub name: &'static str,
    /// Value at snapshot time.
    pub value: u64,
}

/// A point-in-time copy of every registered counter, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<CounterSnap>,
}

impl MetricsSnapshot {
    /// Value of a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }
}

/// A registry of named counters.
///
/// A process-wide instance is available via [`registry`]; isolated
/// instances ([`Registry::new`]) are useful in tests.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Returns (registering on first use) the named counter.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(name).or_default())
    }

    /// A sorted point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, c)| CounterSnap {
                name,
                value: c.get(),
            })
            .collect();
        MetricsSnapshot { counters }
    }

    /// Zeroes every registered counter (registrations are kept, so held
    /// handles stay valid).
    pub fn reset(&self) {
        for c in self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            c.0.store(0, Ordering::Relaxed);
        }
    }
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let r = Registry::new();
        r.counter("b.two").add(2);
        r.counter("a.one").add(1);
        r.counter("b.two").add(3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a.one"), Some(1));
        assert_eq!(snap.counter("b.two"), Some(5));
        assert_eq!(snap.counters[0].name, "a.one");
        assert_eq!(snap.counters[1].name, "b.two");
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let r = Registry::new();
        let c = r.counter("x");
        c.add(9);
        r.reset();
        assert_eq!(c.get(), 0);
        c.add(1);
        assert_eq!(r.snapshot().counter("x"), Some(1));
    }

    #[test]
    fn shared_handles_point_at_the_same_counter() {
        let r = Registry::new();
        let a = r.counter("same");
        let b = r.counter("same");
        a.add(1);
        b.add(1);
        assert_eq!(r.snapshot().counter("same"), Some(2));
    }
}
