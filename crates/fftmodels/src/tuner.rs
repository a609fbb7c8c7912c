//! End-to-end tuning: dry-run every candidate configuration on the
//! simulated machine and pick the fastest — the paper's §IV methodology
//! ("a careful tuning of the algorithm yields to linear scalability"),
//! seeded by the closed-form phase diagram.

use distfft::dryrun::{DryRunOpts, DryRunner};
use distfft::plan::{CommBackend, FftOptions, FftPlan, IoLayout};
use distfft::Decomp;
use simgrid::{MachineSpec, SimTime};

use crate::bandwidth::ModelParams;
use crate::phase::predict_decomp;

/// A tuned configuration with its predicted per-transform time.
#[derive(Debug, Clone)]
pub struct TunedChoice {
    /// Winning options.
    pub opts: FftOptions,
    /// GPU-aware MPI on/off in the winning configuration.
    pub gpu_aware: bool,
    /// Predicted average time per transform.
    pub time: SimTime,
    /// Every evaluated candidate, best first.
    pub candidates: Vec<(FftOptions, bool, SimTime)>,
}

/// Candidate backends the tuner tries. Alltoallw is left out: it is never
/// competitive on GPU arrays (§II), and Fig. 2 already shows it.
fn backends() -> [CommBackend; 4] {
    [
        CommBackend::AllToAll,
        CommBackend::AllToAllV,
        CommBackend::P2p,
        CommBackend::P2pBlocking,
    ]
}

/// Evaluates one configuration with the paper's measurement protocol
/// (2 warm-ups, then 4 forward+backward pairs).
pub fn evaluate(
    machine: &MachineSpec,
    n: [usize; 3],
    nranks: usize,
    opts: FftOptions,
    gpu_aware: bool,
) -> SimTime {
    let plan = FftPlan::build(n, nranks, opts);
    let mut runner = DryRunner::new(
        &plan,
        machine,
        DryRunOpts {
            gpu_aware,
            ..DryRunOpts::default()
        },
    );
    runner.timed_average(2, 4)
}

/// Tunes (decomposition, backend, GPU-awareness) for a transform of size `n`
/// over `nranks` ranks of `machine`, with brick-shaped I/O.
///
/// The closed-form phase diagram (equations (2)/(3) with the machine's
/// advertised NIC bandwidth and latency) preselects the decompositions worth
/// trying; the dry run then measures each candidate end to end.
pub fn tune(machine: &MachineSpec, n: [usize; 3], nranks: usize) -> TunedChoice {
    let params = ModelParams {
        latency_s: machine.inter_latency_ns as f64 * 1e-9,
        bandwidth_bps: machine.nic_gbs * 1e9,
    };
    let hint = predict_decomp(n, nranks, &params);

    // Try the hinted decomposition plus the alternative when feasible.
    let mut decomps = vec![hint.best];
    let alt = match hint.best {
        Decomp::Slabs => Decomp::Pencils,
        _ => Decomp::Slabs,
    };
    let slabs_feasible = nranks <= n[1] && nranks <= n[0];
    if alt != Decomp::Slabs || slabs_feasible {
        decomps.push(alt);
    }

    // Enumerate the candidate grid, then dry-run every cell in parallel.
    // The grid order is preserved, so the stable sort below breaks ties
    // exactly as a serial sweep would.
    let grid: Vec<(Decomp, CommBackend, bool)> = decomps
        .iter()
        .flat_map(|&decomp| {
            backends()
                .into_iter()
                .flat_map(move |backend| [true, false].map(|aware| (decomp, backend, aware)))
        })
        .collect();
    let mut candidates = crate::par::par_map(&grid, |&(decomp, backend, gpu_aware)| {
        let opts = FftOptions {
            decomp,
            backend,
            io: IoLayout::Brick,
            ..FftOptions::default()
        };
        let t = evaluate(machine, n, nranks, opts.clone(), gpu_aware);
        (opts, gpu_aware, t)
    });
    candidates.sort_by_key(|(_, _, t)| *t);
    let (opts, gpu_aware, time) = candidates[0].clone();
    TunedChoice {
        opts,
        gpu_aware,
        time,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuner_returns_sorted_candidates() {
        let machine = MachineSpec::summit();
        let choice = tune(&machine, [64, 64, 64], 12);
        assert!(!choice.candidates.is_empty());
        for w in choice.candidates.windows(2) {
            assert!(w[0].2 <= w[1].2, "candidates not sorted");
        }
        assert_eq!(choice.time, choice.candidates[0].2);
    }

    #[test]
    fn tuned_beats_worst_candidate_clearly() {
        let machine = MachineSpec::summit();
        let choice = tune(&machine, [64, 64, 64], 24);
        let worst = choice.candidates.last().unwrap().2;
        assert!(
            choice.time.as_ns() * 11 < worst.as_ns() * 10,
            "tuning should yield at least ~10%: best {} vs worst {}",
            choice.time,
            worst
        );
    }

    #[test]
    fn evaluate_is_deterministic() {
        let machine = MachineSpec::summit();
        let t1 = evaluate(&machine, [32, 32, 32], 12, FftOptions::default(), true);
        let t2 = evaluate(&machine, [32, 32, 32], 12, FftOptions::default(), true);
        assert_eq!(t1, t2);
    }

    #[test]
    fn gpu_aware_wins_at_scale_for_alltoall() {
        // Fig. 8/11: GPU-aware All-to-All is faster at multi-node scale.
        let machine = MachineSpec::summit();
        let opts = FftOptions {
            backend: CommBackend::AllToAllV,
            ..FftOptions::default()
        };
        let aware = evaluate(&machine, [128, 128, 128], 96, opts.clone(), true);
        let staged = evaluate(&machine, [128, 128, 128], 96, opts, false);
        assert!(
            aware < staged,
            "GPU-aware {aware} should beat staged {staged} at 16 nodes"
        );
    }
}
