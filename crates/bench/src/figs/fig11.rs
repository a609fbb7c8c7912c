//! Figure 11 — `MPI_Alltoallv` with and without GPU-aware MPI at 16 Summit
//! nodes (96 V100): disabling GPU-awareness increases communication cost by
//! ≈30 %, because every message stages device → host → host → device.

use super::fig8::aware_staged;
use crate::{Bound::About, Figure, TextTable};
use distfft::plan::CommBackend;

/// Fig. 11: Fig. 8's 16-node rung.
pub fn fig11() -> Figure {
    let mut f = Figure::new(
        "Fig. 11",
        "Alltoallv comm cost, GPU-aware vs not, 512^3 on 16 nodes (96 V100)",
    );
    let [(tot_a, comm_a), (tot_s, comm_s)] = aware_staged(CommBackend::AllToAllV, 96);
    let mut t = TextTable::new(&["setting", "comm (s)", "total (s)"]);
    t.row(vec![
        "GPU-aware".into(),
        format!("{:.4}", comm_a.as_secs()),
        format!("{:.4}", tot_a.as_secs()),
    ]);
    t.row(vec![
        "-no-gpu-aware".into(),
        format!("{:.4}", comm_s.as_secs()),
        format!("{:.4}", tot_s.as_secs()),
    ]);
    f.table(&t);
    let increase = 100.0 * (comm_s.as_ns() as f64 / comm_a.as_ns() as f64 - 1.0);
    let staging = f.anchor(
        "fig11.staging",
        "staged comm increase, 16 nodes (%)",
        About,
        30.0,
        0.034,
        increase,
    );
    f.line(format!(
        "comm increase without GPU-awareness: {:.1}%  (paper: ~{}%)",
        staging.ours, staging.paper
    ));
    f
}
