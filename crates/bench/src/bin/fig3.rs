//! Figure 3 — per-call communication runtime of the GPU-aware
//! Point-to-Point backends: blocking `MPI_Send`+`MPI_Irecv` versus
//! non-blocking `MPI_Isend`+`MPI_Irecv` (SpectrumMPI), computing a 512³
//! complex-to-complex FFT on 24 V100s. The paper's observation: "there is
//! not much difference when using blocking and non-blocking approaches".

use distfft::plan::{CommBackend, FftOptions};
use distfft::trace::Trace;
use fft_bench::{banner, protocol_traces, Obs, TextTable, N512};
use simgrid::MachineSpec;

fn main() {
    let (obs, _) = Obs::from_env(0);
    banner(
        "Fig. 3",
        "GPU-aware Point-to-Point per-call comm runtime, 512^3 c2c on 24 V100",
    );
    let m = MachineSpec::summit();
    let series = |backend| {
        protocol_traces(
            &m,
            N512,
            24,
            FftOptions {
                backend,
                ..FftOptions::default()
            },
            true,
            0.04,
        )
    };
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
    println!("{}", t.render());

    let nb_total: f64 = nonblocking.iter().map(|t| t.as_secs()).sum();
    let b_total: f64 = blocking.iter().map(|t| t.as_secs()).sum();
    println!("totals: non-blocking {nb_total:.3} s, blocking {b_total:.3} s");
    println!(
        "ratio blocking/non-blocking = {:.3}  (paper: 'not much difference')",
        b_total / nb_total
    );
}
