//! "Why this decomposition" — a one-paragraph narrative for a tuned
//! choice.
//!
//! The tuner ranks candidates by dry-run time but leaves the *why* to the
//! reader. This module profiles the winner and the best candidate with
//! the other decomposition, diffs them, and writes the paragraph a
//! performance engineer would: which configuration won, by how much,
//! which phase of the loser's critical path paid for it, and whether the
//! closed-form model (equations (2)/(3)) agrees.

use distfft::plan::FftOptions;
use fftmodels::tuner::TunedChoice;
use simgrid::MachineSpec;

use crate::attr::Phase;
use crate::diff::DiffReport;
use crate::report::profile_config;

/// Profiles the tuner's winner (and its best differently-decomposed
/// rival, when one was evaluated) and renders a one-paragraph
/// explanation of why the winning decomposition wins on this machine at
/// this size and rank count.
pub fn why_decomposition(
    machine: &MachineSpec,
    n: [usize; 3],
    nranks: usize,
    choice: &TunedChoice,
) -> String {
    let win_label = config_label(&choice.opts, choice.gpu_aware);
    let winner = profile_config(
        &win_label,
        machine,
        n,
        nranks,
        choice.opts.clone(),
        choice.gpu_aware,
    );

    let rival = choice
        .candidates
        .iter()
        .find(|(opts, _, _)| opts.decomp != choice.opts.decomp)
        .map(|(opts, aware, _)| {
            profile_config(
                &config_label(opts, *aware),
                machine,
                n,
                nranks,
                opts.clone(),
                *aware,
            )
        });

    let mut out = String::with_capacity(512);
    out.push_str(&format!(
        "For a {}×{}×{} transform on {} with {} ranks, the tuner picked {} via {}{}, \
         finishing in {}. ",
        n[0],
        n[1],
        n[2],
        winner.machine,
        nranks,
        winner.decomp,
        winner.routine,
        if winner.gpu_aware {
            " (GPU-aware)"
        } else {
            " (host-staged)"
        },
        fmt_ns(winner.makespan_ns()),
    ));
    out.push_str(&format!(
        "Its critical path is {:.0}% communication ({} of busy time), so the exchange \
         pattern, not FFT throughput, decides the ranking. ",
        winner.critpath.comm_share() * 100.0,
        fmt_ns(
            winner.critpath.by_phase[Phase::Send as usize]
                + winner.critpath.by_phase[Phase::RecvWait as usize]
        ),
    ));

    match rival {
        Some(rival) => {
            let diff = DiffReport::between(&winner, &rival);
            #[expect(
                clippy::expect_used,
                reason = "a differential report always has phase rows"
            )]
            let worst = diff
                .rows
                .iter()
                .max_by_key(|r| r.delta_ns())
                .expect("seven rows");
            out.push_str(&format!(
                "The best {} candidate is {} slower ({} vs {}); the gap is concentrated in \
                 its {} phase (+{}). ",
                rival.decomp,
                fmt_ns(diff.makespan_delta_ns().max(0) as u64),
                fmt_ns(rival.makespan_ns()),
                fmt_ns(winner.makespan_ns()),
                worst.phase.label(),
                fmt_ns(worst.delta_ns().max(0) as u64),
            ));
        }
        None => {
            out.push_str(
                "No candidate with the alternative decomposition was feasible at this rank count. ",
            );
        }
    }

    out.push_str(&format!(
        "The bandwidth model (eqs. (2)/(3)) predicts {} of communication against {} measured \
         ({:+.0}% residual), {} the measured ranking.",
        fmt_ns(winner.residual.predicted_comm_ns),
        fmt_ns(winner.residual.measured_comm_ns),
        winner.residual.residual_frac() * 100.0,
        if winner.residual.residual_frac().abs() < 0.5 {
            "corroborating"
        } else {
            "loosely tracking"
        },
    ));
    out
}

/// Short label for a candidate configuration.
fn config_label(opts: &FftOptions, gpu_aware: bool) -> String {
    format!(
        "{}/{}/{}",
        opts.decomp.name(),
        opts.backend.routine(),
        if gpu_aware { "gpu-aware" } else { "staged" }
    )
}

/// `Profile`-independent pretty-printer for simulated durations.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fftmodels::tuner::tune;

    #[test]
    fn explanation_names_the_winner_and_the_model() {
        let machine = MachineSpec::summit();
        let n = [32, 32, 32];
        let nranks = 12;
        let choice = tune(&machine, n, nranks);
        let text = why_decomposition(&machine, n, nranks, &choice);
        assert!(text.contains(choice.opts.decomp.name()), "{text}");
        assert!(text.contains("critical path"), "{text}");
        assert!(text.contains("eqs. (2)/(3)"), "{text}");
        // One paragraph: no newlines, a few sentences.
        assert!(!text.contains('\n'));
        assert!(text.matches(". ").count() >= 2);
    }
}
