//! Figure 5 — best-setting regions for a 512³ c2c FFT on an increasing
//! number of Summit nodes (6 V100/node, 1 MPI rank per GPU): the strong-
//! scaling curve of the fastest configuration, labeled with the winning
//! (decomposition, exchange) pair, plus the closed-form model's prediction.
//!
//! Paper shape: slabs + point-to-point at the smallest node counts, slabs +
//! all-to-all in the middle, pencils + all-to-all from 64 nodes on; the
//! fastest runtimes use GPU-aware SpectrumMPI.

use distfft::plan::{CommBackend, FftOptions};
use distfft::Decomp;
use fft_bench::{banner, table3_ranks, timed_average, TextTable, N512};
use fftmodels::bandwidth::ModelParams;
use fftmodels::phase::predict_decomp;
use fftprof::DiffReport;
use simgrid::MachineSpec;

fn main() {
    let (obs, _) = fft_bench::Obs::from_env(0);
    banner(
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
    // One ladder point per parallel task; within a task the candidate loop
    // stays serial so the first-wins tie-breaking matches the serial sweep.
    // FFT_FIG5_MAX_NODES trims the ladder (the CI smoke test caps it so the
    // three profiling runs stay fast); unset = the paper's full 512 nodes.
    let max_nodes: usize =
        fftobs::env::positive_var("FFT_FIG5_MAX_NODES", "the full ladder").unwrap_or(usize::MAX);
    let ladder: Vec<usize> = table3_ranks()
        .into_iter()
        .filter(|ranks| ranks / 6 <= max_nodes)
        .collect();
    let rows = fftmodels::par_map(&ladder, |&ranks| {
        let mut best: Option<(f64, String)> = None;
        for decomp in [Decomp::Slabs, Decomp::Pencils] {
            if decomp == Decomp::Slabs && ranks > N512[1] {
                continue; // the paper's N2-process slab limit
            }
            for (backend, label) in [
                (CommBackend::AllToAll, "all-to-all"),
                (CommBackend::AllToAllV, "all-to-all"),
                (CommBackend::P2p, "point-to-point"),
            ] {
                let time = timed_average(
                    &m,
                    N512,
                    ranks,
                    FftOptions {
                        decomp,
                        backend,
                        ..FftOptions::default()
                    },
                    true, // fastest runtimes use GPU-aware SpectrumMPI
                )
                .as_secs();
                let name = format!("{} + {}", decomp.name(), label);
                if best.as_ref().map(|(bt, _)| time < *bt).unwrap_or(true) {
                    best = Some((time, name));
                }
            }
        }
        let (time, setting) = best.expect("at least one candidate");
        let predicted = predict_decomp(N512, ranks, &params).best;
        (ranks, time, setting, predicted)
    });
    for (ranks, time, setting, predicted) in rows {
        t.row(vec![
            format!("{}", ranks / 6),
            format!("{ranks}"),
            format!("{time:.4}"),
            setting,
            predicted.name().to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "paper shape: P2P region at the smallest scales, slabs+A2A in the\n\
         middle, pencils+A2A from 64 nodes (384 ranks) onward; the model's\n\
         slab/pencil prediction (last column) crosses at the same point."
    );

    // --profile-out: profile the figure's headline comparison — the 64-node
    // (384-rank) point where pencils+A2A takes over from P2P — and write
    // the winner's profile (JSON + collapsed stacks). The phase-by-phase
    // diff goes to stderr; stdout above stays byte-identical.
    if obs.profiling() {
        let ranks = 384.min(*ladder.last().expect("non-empty ladder"));
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
}
