//! Exascale projection — the paper's closing claim: "the speedups obtained
//! from [batching and tuning] can be extremely helpful … to ensure
//! scalability on the upcoming exascale supercomputers" (§IV-D/§V).
//!
//! Runs the tuned 512³ and a larger 1024³ transform on the
//! Frontier-projection machine model alongside Summit, out to 1024 nodes
//! (8192 effective GPUs), and reports the scaling and the tuned settings.

use distfft::plan::{CommBackend, FftOptions};
use distfft::Decomp;
use fft_bench::{banner, timed_average, TextTable};
use simgrid::MachineSpec;

fn best(machine: &MachineSpec, n: [usize; 3], ranks: usize) -> (f64, String) {
    let mut best: Option<(f64, String)> = None;
    for decomp in [Decomp::Slabs, Decomp::Pencils] {
        if decomp == Decomp::Slabs && ranks > n[0].min(n[1]) {
            continue;
        }
        for backend in [CommBackend::AllToAllV, CommBackend::P2p] {
            let t = timed_average(
                machine,
                n,
                ranks,
                FftOptions {
                    decomp,
                    backend,
                    ..FftOptions::default()
                },
                true,
            )
            .as_secs();
            let label = format!("{}+{}", decomp.name(), backend.routine());
            if best.as_ref().map(|(bt, _)| t < *bt).unwrap_or(true) {
                best = Some((t, label));
            }
        }
    }
    best.expect("at least one configuration")
}

fn main() {
    fft_bench::reject_args();
    banner(
        "exascale",
        "tuned FFT scaling projected onto a Frontier-class machine",
    );
    let summit = MachineSpec::summit();
    let frontier = MachineSpec::frontier_projection();

    for n in [[512usize, 512, 512], [1024, 1024, 1024]] {
        println!("--- {}^3 complex-to-complex", n[0]);
        let mut t = TextTable::new(&[
            "nodes",
            "Summit ranks",
            "Summit best (s)",
            "Summit setting",
            "Frontier ranks",
            "Frontier best (s)",
            "Frontier setting",
        ]);
        // Each (node count, machine) cell dry-runs independently.
        let nodes_ladder = [16usize, 64, 256, 1024];
        let rows = fftmodels::par_map(&nodes_ladder, |&nodes| {
            (
                nodes,
                best(&summit, n, nodes * summit.gpus_per_node),
                best(&frontier, n, nodes * frontier.gpus_per_node),
            )
        });
        for (nodes, (ts, ss), (tf, sf)) in rows {
            t.row(vec![
                format!("{nodes}"),
                format!("{}", nodes * summit.gpus_per_node),
                format!("{ts:.4}"),
                ss,
                format!("{}", nodes * frontier.gpus_per_node),
                format!("{tf:.4}"),
                sf,
            ]);
        }
        println!("{}", t.render());
    }
    println!(
        "projection: faster NICs and denser nodes keep the tuned FFT scaling\n\
         at node counts where Summit has flattened — the §V outlook."
    );
}
