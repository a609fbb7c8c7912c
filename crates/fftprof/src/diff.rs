//! Differential reports between two profiled runs.
//!
//! The paper's figures are comparative: slabs vs pencils, alltoall vs
//! point-to-point, GPU-aware vs staged. A [`DiffReport`] compares two
//! [`Profile`]s phase-by-phase — using the per-phase **maximum across
//! ranks**, the wall-clock-relevant view — and carries both runs'
//! model-vs-measured residuals so a difference can be checked against
//! what equations (2)/(3) predicted it should be.
//!
//! A run diffed against itself is exactly zero everywhere — asserted in
//! the property tests, which makes drift in any of the underlying
//! analyses loud.

use crate::attr::{Phase, PHASES};
use crate::report::{ModelResidual, Profile};

/// One phase's comparison between runs A and B.
#[derive(Debug, Clone, Copy)]
pub struct DiffRow {
    /// Phase compared.
    pub phase: Phase,
    /// Run A: max across ranks, ns.
    pub a_ns: u64,
    /// Run B: max across ranks, ns.
    pub b_ns: u64,
}

impl DiffRow {
    /// Signed difference `B − A`, ns (negative = B faster).
    pub fn delta_ns(&self) -> i64 {
        self.b_ns as i64 - self.a_ns as i64
    }

    /// Difference as a fraction of A (0 when A is 0 and B is 0;
    /// +∞-avoiding: B/0 reports 1.0 per nonzero B).
    pub fn delta_frac(&self) -> f64 {
        if self.a_ns == 0 {
            if self.b_ns == 0 {
                0.0
            } else {
                1.0
            }
        } else {
            self.delta_ns() as f64 / self.a_ns as f64
        }
    }
}

/// A phase-by-phase comparison of two runs.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Label of run A (the baseline).
    pub a_label: String,
    /// Label of run B (the contender).
    pub b_label: String,
    /// One row per phase, in priority order.
    pub rows: Vec<DiffRow>,
    /// Run A makespan, ns.
    pub a_makespan_ns: u64,
    /// Run B makespan, ns.
    pub b_makespan_ns: u64,
    /// Run A model residual.
    pub a_residual: ModelResidual,
    /// Run B model residual.
    pub b_residual: ModelResidual,
}

impl DiffReport {
    /// Compares two profiles (A = baseline, B = contender).
    pub fn between(a: &Profile, b: &Profile) -> DiffReport {
        let am = a.phases.max_over_ranks();
        let bm = b.phases.max_over_ranks();
        let rows = PHASES
            .iter()
            .map(|&phase| DiffRow {
                phase,
                a_ns: am.get(phase),
                b_ns: bm.get(phase),
            })
            .collect();
        DiffReport {
            a_label: a.label.clone(),
            b_label: b.label.clone(),
            rows,
            a_makespan_ns: a.makespan_ns(),
            b_makespan_ns: b.makespan_ns(),
            a_residual: a.residual,
            b_residual: b.residual,
        }
    }

    /// Signed makespan difference `B − A`, ns (negative = B wins).
    pub fn makespan_delta_ns(&self) -> i64 {
        self.b_makespan_ns as i64 - self.a_makespan_ns as i64
    }

    /// Label of the faster run (A on a tie).
    pub fn winner(&self) -> &str {
        if self.b_makespan_ns < self.a_makespan_ns {
            &self.b_label
        } else {
            &self.a_label
        }
    }

    /// True when every phase and the makespan are identical — the
    /// self-diff invariant.
    pub fn is_zero(&self) -> bool {
        self.makespan_delta_ns() == 0 && self.rows.iter().all(|r| r.delta_ns() == 0)
    }

    /// Human-readable table (for stderr reports).
    pub fn render_text(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str(&format!(
            "differential report: A = {} | B = {}\n",
            self.a_label, self.b_label
        ));
        s.push_str(&format!(
            "{:<10} {:>14} {:>14} {:>14} {:>9}\n",
            "phase", "A max (ns)", "B max (ns)", "B-A (ns)", "B-A (%)"
        ));
        for r in &self.rows {
            s.push_str(&format!(
                "{:<10} {:>14} {:>14} {:>14} {:>8.1}%\n",
                r.phase.label(),
                r.a_ns,
                r.b_ns,
                r.delta_ns(),
                r.delta_frac() * 100.0
            ));
        }
        s.push_str(&format!(
            "{:<10} {:>14} {:>14} {:>14}   winner: {}\n",
            "makespan",
            self.a_makespan_ns,
            self.b_makespan_ns,
            self.makespan_delta_ns(),
            self.winner()
        ));
        s.push_str(&format!(
            "model residual (measured-predicted comm): A {:+} ns ({:+.1}%) | B {:+} ns ({:+.1}%)\n",
            self.a_residual.residual_ns(),
            self.a_residual.residual_frac() * 100.0,
            self.b_residual.residual_ns(),
            self.b_residual.residual_frac() * 100.0
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfft::plan::FftOptions;
    use simgrid::MachineSpec;

    #[test]
    fn self_diff_is_all_zeros() {
        let machine = MachineSpec::summit();
        let p = crate::report::profile_config(
            "self",
            &machine,
            [32, 32, 32],
            12,
            FftOptions::default(),
            true,
        );
        let d = DiffReport::between(&p, &p);
        assert!(d.is_zero(), "{}", d.render_text());
        assert_eq!(d.winner(), "self");
    }
}
