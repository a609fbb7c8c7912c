//! Phase-level regression gating against the ledger.
//!
//! `fftbench`'s bounds gate *totals*; this module gates *phases*
//! (`scripts/phase_gate` is its CI face).
//! The difference matters exactly when a phase regression hides inside an
//! unchanged makespan: on a wire-bound run, compute can inflate by 40%
//! while the critical path still ends on the same recv-wait — total time
//! says nothing moved, the phase gate names the compute regression (the
//! scenario pinned by `tests/gate.rs`).
//!
//! The comparison view is the per-phase **maximum across ranks** — the
//! same wall-clock-relevant view `fftprof::diff` uses — between a fresh
//! record and the most recent ledger entry with the **same fingerprint**.
//! Phases below a noise floor (the larger of 1 µs and 1% of the baseline
//! makespan) are never gated: a 3 ns self-copy tripling is not a
//! regression, it is rounding.

use fftprof::PHASES;

use crate::ledger::Ledger;
use crate::record::LedgerRecord;

/// Default regression threshold: fail when a phase grows by more than
/// this fraction over baseline (matches `scripts/phase_gate`).
pub const DEFAULT_THRESHOLD: f64 = 0.25;

/// One phase that regressed past the threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseRegression {
    /// Phase label (stable `fftprof` label, e.g. `"compute"`).
    pub phase: &'static str,
    /// Baseline: max across ranks, ns.
    pub baseline_ns: u64,
    /// Fresh run: max across ranks, ns.
    pub fresh_ns: u64,
    /// Fractional growth (`fresh / baseline − 1`).
    pub growth: f64,
}

/// The outcome of gating one fresh record against the ledger.
#[derive(Debug, Clone, PartialEq)]
pub enum GateOutcome {
    /// No prior run with this fingerprint — nothing to compare, pass.
    NoBaseline,
    /// Compared against a baseline; `regressions` is empty on pass.
    Compared {
        /// Baseline timestamp (caller-provided ns since epoch).
        baseline_ts_ns: u64,
        /// Phases that regressed past the threshold, worst first.
        regressions: Vec<PhaseRegression>,
    },
}

impl GateOutcome {
    /// True when nothing regressed (including the no-baseline case).
    pub fn passed(&self) -> bool {
        match self {
            GateOutcome::NoBaseline => true,
            GateOutcome::Compared { regressions, .. } => regressions.is_empty(),
        }
    }
}

/// Gates `fresh` against the last ledger entry with the same fingerprint.
/// A phase regresses when `fresh > baseline · (1 + threshold)` and the
/// baseline is above the noise floor.
pub fn gate_phases(ledger: &Ledger, fresh: &LedgerRecord, threshold: f64) -> GateOutcome {
    let digest = fresh.fingerprint.digest();
    let Some(baseline) = ledger.last_for(&digest) else {
        return GateOutcome::NoBaseline;
    };
    let base = baseline.max_phase_ns();
    let now = fresh.max_phase_ns();
    let floor = 1_000u64.max(baseline.makespan_ns / 100);
    let mut regressions = Vec::new();
    for p in PHASES {
        // Idle is the complement of work, not work: when a phase improves
        // under an unchanged makespan, idle grows by exactly the saved
        // time — gating it would fail CI *for* the improvement. Slowdowns
        // that manifest as waiting show up in recv-wait or in the total
        // gate's makespan.
        if p == fftprof::Phase::Idle {
            continue;
        }
        let b = base[p as usize];
        let f = now[p as usize];
        if b < floor {
            continue;
        }
        let limit = (b as f64 * (1.0 + threshold)).ceil() as u64;
        if f > limit {
            regressions.push(PhaseRegression {
                phase: p.label(),
                baseline_ns: b,
                fresh_ns: f,
                growth: f as f64 / b as f64 - 1.0,
            });
        }
    }
    regressions.sort_by(|a, b| b.growth.total_cmp(&a.growth));
    GateOutcome::Compared {
        baseline_ts_ns: baseline.ts_ns,
        regressions,
    }
}
