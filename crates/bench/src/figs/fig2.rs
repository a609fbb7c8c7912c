//! Figure 2 — per-call communication runtime of the GPU-aware All-to-All
//! family: `MPI_Alltoall` and `MPI_Alltoallv` (SpectrumMPI) versus
//! `MPI_Alltoallw` (MVAPICH-GDR, Algorithm 2), computing a 512³
//! complex-to-complex FFT on 24 V100s (4 Summit nodes). 10 transforms ×
//! 4 reshapes = 40 MPI calls.

use crate::{Bound::About, Figure, Obs, TextTable};
use distfft::plan::CommBackend;
use distfft::trace::Trace;
use mpisim::MpiDistro;
use simgrid::SimTime;

/// Fig. 2; the Alltoallv timeline goes to `obs`.
pub fn fig2(obs: &Obs) -> Figure {
    let mut f = Figure::new(
        "Fig. 2",
        "GPU-aware All-to-All per-call comm runtime, 512^3 c2c on 24 V100 (4 nodes)",
    );
    let traces = |backend, distro| super::traces_on_24(backend, false, distro, 0.04);
    let a2a = Trace::max_mpi_calls(&traces(CommBackend::AllToAll, MpiDistro::SpectrumMpi));
    // The Alltoallv run is the paper's winning configuration — it is the
    // timeline exported under --trace-out.
    let a2av_traces = traces(CommBackend::AllToAllV, MpiDistro::SpectrumMpi);
    let a2av = Trace::max_mpi_calls(&a2av_traces);
    let a2aw = Trace::max_mpi_calls(&traces(CommBackend::AllToAllW, MpiDistro::MvapichGdr));
    obs.emit(&a2av_traces);

    let mut t = TextTable::new(&["call", "Alltoall (s)", "Alltoallv (s)", "Alltoallw (s)"]);
    let ncalls = a2a.len().min(a2av.len()).min(a2aw.len());
    for i in 0..ncalls {
        t.row(vec![
            format!("{}", i + 1),
            format!("{:.4}", a2a[i].as_secs()),
            format!("{:.4}", a2av[i].as_secs()),
            format!("{:.4}", a2aw[i].as_secs()),
        ]);
    }
    f.table(&t);

    let sum = |v: &[SimTime]| -> f64 { v.iter().map(|t| t.as_secs()).sum() };
    f.line(format!("totals over {ncalls} calls:"));
    for (call, v) in [
        ("MPI_Alltoall  (SpectrumMPI)", &a2a),
        ("MPI_Alltoallv (SpectrumMPI)", &a2av),
        ("MPI_Alltoallw (MVAPICH-GDR)", &a2aw),
    ] {
        f.line(format!("  {call} : {:8.3} s", sum(v)));
    }
    f.line("");
    f.line(
        "paper shape: Alltoallv fastest; padded Alltoall suffers on the\n\
         brick<->pencil reshape calls; unoptimized Alltoallw is worst.",
    );
    f.anchor(
        "fig2.padding",
        "A2A/A2AV comm total, 40 calls",
        About,
        2.0,
        0.474,
        sum(&a2a) / sum(&a2av),
    );
    f
}
