//! Figure 5 — best-setting regions for a 512³ c2c FFT on an increasing
//! number of Summit nodes (6 V100/node, 1 MPI rank per GPU): the strong-
//! scaling curve of the fastest configuration, labeled with the winning
//! (decomposition, exchange) pair, plus the closed-form model's prediction.
//!
//! Paper shape: slabs + point-to-point at the smallest node counts, slabs +
//! all-to-all in the middle, pencils + all-to-all from 64 nodes on; the
//! fastest runtimes use GPU-aware SpectrumMPI.
//!
//! `max_nodes` trims the node ladder (the profiling smoke test and the
//! fidelity table cap it so their runs stay fast); `usize::MAX` runs it to
//! the paper's full 512 nodes.

use crate::{table3_ranks, timed_average, Bound::About, Figure, Obs, TextTable, N512};
use distfft::plan::{CommBackend, FftOptions};
use distfft::Decomp;
use fftmodels::bandwidth::ModelParams;
use fftmodels::phase::predict_decomp;
use fftprof::DiffReport;
use simgrid::MachineSpec;

/// Fig. 5 up to `max_nodes` nodes; `obs` gets the profile of the 64-node
/// (or last) point.
pub fn fig5(max_nodes: usize, obs: &Obs) -> Figure {
    let mut f = Figure::new(
        "Fig. 5",
        "best-setting regions, 512^3 c2c strong scaling on Summit",
    );
    let m = MachineSpec::summit();
    let params = ModelParams::summit();

    let mut t = TextTable::new(&[
        "nodes",
        "ranks",
        "best time (s)",
        "best setting",
        "model predicts",
    ]);
    let ladder: Vec<usize> = table3_ranks()
        .into_iter()
        .filter(|ranks| ranks / 6 <= max_nodes)
        .collect();
    let backends = [
        CommBackend::AllToAll,
        CommBackend::AllToAllV,
        CommBackend::P2p,
    ];
    let rows = fftmodels::par_map(&ladder, |&ranks| {
        let best = best_setting(&m, N512, ranks, &backends);
        (ranks, best, predict_decomp(N512, ranks, &params).best)
    });
    for &(ranks, (time, decomp, backend), predicted) in &rows {
        let exchange = match backend {
            CommBackend::P2p => "point-to-point",
            _ => "all-to-all",
        };
        t.row(vec![
            format!("{}", ranks / 6),
            format!("{ranks}"),
            format!("{time:.4}"),
            format!("{} + {exchange}", decomp.name()),
            predicted.name().to_string(),
        ]);
    }
    f.table(&t);
    let measured = pencils_from(rows.iter().map(|&(r, (_, decomp, _), _)| (r, decomp)));
    let crossover = f.anchor(
        "fig5.crossover",
        "first pencils win, measured (nodes)",
        About,
        64.0,
        0.0,
        measured,
    );
    f.anchor(
        "sec4a.model",
        "first pencils pick, model (nodes)",
        About,
        64.0,
        0.0,
        pencils_from(rows.iter().map(|&(r, _, model)| (r, model))),
    );
    f.line(format!(
        "paper shape: P2P region at the smallest scales, slabs+A2A in the\n\
         middle, pencils+A2A from {} nodes ({} ranks) onward; the model's\n\
         slab/pencil prediction (last column) crosses at the same point.",
        crossover.paper,
        crossover.paper * 6.0
    ));

    // --profile-out: profile the figure's headline comparison — the 64-node
    // (384-rank) point where pencils+A2A takes over from P2P — and write
    // the winner's profile (JSON + collapsed stacks). The phase-by-phase
    // diff goes to stderr; stdout above stays byte-identical.
    if obs.profiling() {
        let ranks = ladder.last().map_or(6, |&last| last.min(384));
        let profile_backend = |backend: CommBackend, label: &str| {
            fftprof::profile_config(
                label,
                &m,
                N512,
                ranks,
                FftOptions {
                    decomp: Decomp::Pencils,
                    backend,
                    ..FftOptions::default()
                },
                true,
            )
        };
        let a2a = profile_backend(
            CommBackend::AllToAllV,
            &format!("pencils+alltoallv_{ranks}r"),
        );
        let p2p = profile_backend(CommBackend::P2p, &format!("pencils+p2p_{ranks}r"));
        let diff = DiffReport::between(&a2a, &p2p);
        eprint!("{}", diff.render_text());
        let winner = if p2p.makespan_ns() < a2a.makespan_ns() {
            p2p
        } else {
            a2a
        };
        obs.emit_profile(&winner);
    }
    f
}

/// The first node count whose `(ranks, decomposition)` is pencils.
fn pencils_from(mut ladder: impl Iterator<Item = (usize, Decomp)>) -> f64 {
    let first = ladder.find(|&(_, decomp)| decomp == Decomp::Pencils);
    first.map_or(f64::NAN, |(ranks, _)| (ranks / 6) as f64)
}

/// The fastest GPU-aware `(seconds per transform, decomposition, backend)`
/// for an `n` transform on `ranks` GPUs of `m`: slabs (within their
/// `min(n₀, n₁)`-rank limit), then pencils, each over `backends` in order;
/// the first of equal times wins. Fig. 5 and the exascale projection.
pub(super) fn best_setting(
    m: &MachineSpec,
    n: [usize; 3],
    ranks: usize,
    backends: &[CommBackend],
) -> (f64, Decomp, CommBackend) {
    let mut best = (f64::INFINITY, Decomp::Pencils, CommBackend::AllToAllV);
    for decomp in [Decomp::Slabs, Decomp::Pencils] {
        if decomp == Decomp::Slabs && ranks > n[0].min(n[1]) {
            continue; // the paper's N2-process slab limit
        }
        for &backend in backends {
            let opts = FftOptions {
                decomp,
                backend,
                ..FftOptions::default()
            };
            let time = timed_average(m, n, ranks, opts, true).as_secs();
            if time < best.0 {
                best = (time, decomp, backend);
            }
        }
    }
    best
}
