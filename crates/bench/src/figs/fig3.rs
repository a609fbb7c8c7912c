//! Figure 3 — per-call communication runtime of the GPU-aware
//! Point-to-Point backends: blocking `MPI_Send`+`MPI_Irecv` versus
//! non-blocking `MPI_Isend`+`MPI_Irecv` (SpectrumMPI), computing a 512³
//! complex-to-complex FFT on 24 V100s. The paper's observation: "there is
//! not much difference when using blocking and non-blocking approaches".

use crate::{Bound::About, Figure, Obs, TextTable};
use distfft::plan::CommBackend;
use distfft::trace::Trace;
use mpisim::MpiDistro;

/// Fig. 3; the non-blocking timeline goes to `obs`.
pub fn fig3(obs: &Obs) -> Figure {
    let mut f = Figure::new(
        "Fig. 3",
        "GPU-aware Point-to-Point per-call comm runtime, 512^3 c2c on 24 V100",
    );
    let series = |backend| super::traces_on_24(backend, false, MpiDistro::SpectrumMpi, 0.04);
    // The non-blocking run is the timeline exported under --trace-out.
    let nb_traces = series(CommBackend::P2p);
    let nonblocking = Trace::max_mpi_calls(&nb_traces);
    let blocking = Trace::max_mpi_calls(&series(CommBackend::P2pBlocking));
    obs.emit(&nb_traces);

    let mut t = TextTable::new(&["call", "Isend/Irecv (s)", "Send/Irecv (s)"]);
    for i in 0..nonblocking.len().min(blocking.len()) {
        t.row(vec![
            format!("{}", i + 1),
            format!("{:.4}", nonblocking[i].as_secs()),
            format!("{:.4}", blocking[i].as_secs()),
        ]);
    }
    f.table(&t);

    let nb_total: f64 = nonblocking.iter().map(|t| t.as_secs()).sum();
    let b_total: f64 = blocking.iter().map(|t| t.as_secs()).sum();
    f.line(format!(
        "totals: non-blocking {nb_total:.3} s, blocking {b_total:.3} s"
    ));
    let ratio = f.anchor(
        "fig3.flavours",
        "blocking/non-blocking P2P comm",
        About,
        1.0,
        0.001,
        b_total / nb_total,
    );
    f.line(format!(
        "ratio blocking/non-blocking = {:.3}  (paper: 'not much difference')",
        ratio.ours
    ));
    f
}
