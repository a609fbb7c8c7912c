#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # fftobs — lightweight cross-crate observability
//!
//! The paper's entire method is instrumentation: per-call MPI traces,
//! kernel-time breakdowns and bandwidth accounting drive every figure
//! (Figs. 2–13). This crate is the shared observability substrate for the
//! reproduction stack:
//!
//! * [`metrics`] — a thread-safe registry of named counters and log₂
//!   histograms. Recording is **zero-cost when disabled** (one relaxed
//!   atomic load) and never feeds back into simulated time, so an
//!   instrumented run is byte-identical to an uninstrumented one.
//! * [`span`] — per-rank span timelines and their export formats:
//!   Chrome-trace JSON (loadable in `chrome://tracing` / Perfetto) and a
//!   plain-text summary table.
//! * [`json`] — a minimal JSON reader used to validate exported traces in
//!   tests and the CI smoke check (no serde dependency).
//!
//! The engine records into the registry from one site, `distfft`'s
//! `Trace::push` (per-phase event counts, span histograms, MPI bytes).
//! Host work is not counted here: each rank's `mpisim::comm::RankWork` and
//! `distfft::ExecWork` count it exactly and always on.
//!
//! ## Usage
//!
//! ```
//! fftobs::set_enabled(true);
//! fftobs::count("demo.requests", 1);
//! fftobs::observe("demo.latency_ns", 1234);
//! let snap = fftobs::registry().snapshot();
//! assert_eq!(snap.counter("demo.requests"), Some(1));
//! fftobs::set_enabled(false);
//! ```

pub mod json;
pub mod metrics;
pub mod span;

pub use metrics::{registry, MetricsSnapshot, Registry};
pub use span::{chrome_trace_json, span_summary, Span};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when metric recording is globally enabled.
///
/// A single relaxed load — the entire cost of an instrumentation point in a
/// disabled run.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables metric recording. Disabled by default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed)
}

/// Adds `n` to the named counter of the global registry (no-op while
/// observability is disabled).
#[inline]
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        registry().counter(name).add(n);
    }
}

/// Records `value` into the named histogram of the global registry (no-op
/// while observability is disabled).
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if enabled() {
        registry().histogram(name).record(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_dropped() {
        // The global toggle is shared across the test binary; counters are
        // compared as deltas against uniquely named metrics.
        set_enabled(false);
        count("lib.disabled_counter", 5);
        observe("lib.disabled_hist", 5);
        assert_eq!(registry().snapshot().counter("lib.disabled_counter"), None);

        set_enabled(true);
        count("lib.enabled_counter", 2);
        count("lib.enabled_counter", 3);
        set_enabled(false);
        assert_eq!(
            registry().snapshot().counter("lib.enabled_counter"),
            Some(5)
        );
    }
}
