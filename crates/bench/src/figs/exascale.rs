//! Exascale projection — the paper's closing claim: "the speedups obtained
//! from [batching and tuning] can be extremely helpful … to ensure
//! scalability on the upcoming exascale supercomputers" (§IV-D/§V).
//!
//! Runs the tuned 512³ and a larger 1024³ transform on the
//! Frontier-projection machine model alongside Summit, out to 1024 nodes
//! (8192 effective GPUs), and reports the scaling and the tuned settings.

use super::fig5::best_setting;
use crate::{Figure, TextTable};
use distfft::plan::CommBackend;
use simgrid::MachineSpec;

pub fn exascale() -> Figure {
    let mut f = Figure::new(
        "exascale",
        "tuned FFT scaling projected onto a Frontier-class machine",
    );
    let summit = MachineSpec::summit();
    let frontier = MachineSpec::frontier_projection();
    let best = |m: &MachineSpec, n, ranks| {
        let (t, decomp, backend) =
            best_setting(m, n, ranks, &[CommBackend::AllToAllV, CommBackend::P2p]);
        (t, format!("{}+{}", decomp.name(), backend.routine()))
    };

    for n in [[512usize, 512, 512], [1024, 1024, 1024]] {
        f.line(format!("--- {}^3 complex-to-complex", n[0]));
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
        f.table(&t);
    }
    f.line(
        "projection: faster NICs and denser nodes keep the tuned FFT scaling\n\
         at node counts where Summit has flattened — the §V outlook.",
    );
    f
}
