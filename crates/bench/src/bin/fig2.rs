//! Figure 2 — per-call communication runtime of the GPU-aware All-to-All
//! family: `MPI_Alltoall` and `MPI_Alltoallv` (SpectrumMPI) versus
//! `MPI_Alltoallw` (MVAPICH-GDR, Algorithm 2), computing a 512³
//! complex-to-complex FFT on 24 V100s (4 Summit nodes). 10 transforms ×
//! 4 reshapes = 40 MPI calls.

use distfft::dryrun::{DryRunOpts, DryRunner};
use distfft::plan::{CommBackend, FftOptions, FftPlan, IoLayout};
use distfft::trace::Trace;
use fft_bench::{banner, Obs, TextTable, N512, PAIRS, WARMUPS};
use fftkern::Direction;
use mpisim::MpiDistro;
use simgrid::{MachineSpec, SimTime};

fn backend_traces(machine: &MachineSpec, backend: CommBackend, distro: MpiDistro) -> Vec<Trace> {
    let opts = FftOptions {
        backend,
        io: IoLayout::Brick,
        ..FftOptions::default()
    };
    let plan = FftPlan::build(N512, 24, opts);
    let mut runner = DryRunner::new(
        &plan,
        machine,
        DryRunOpts {
            distro,
            noise_amplitude: 0.04,
            ..DryRunOpts::default()
        },
    );
    let mut traces: Vec<Trace> = vec![Trace::new(); 24];
    for i in 0..(WARMUPS + 2 * PAIRS) {
        let dir = if i % 2 == 0 {
            Direction::Forward
        } else {
            Direction::Inverse
        };
        let rep = runner.run(dir);
        for (m, t) in traces.iter_mut().zip(rep.traces) {
            m.events.extend(t.events);
        }
    }
    traces
}

fn main() {
    let (obs, _) = Obs::from_env(0);
    banner(
        "Fig. 2",
        "GPU-aware All-to-All per-call comm runtime, 512^3 c2c on 24 V100 (4 nodes)",
    );
    let m = MachineSpec::summit();
    let a2a = Trace::max_mpi_calls(&backend_traces(
        &m,
        CommBackend::AllToAll,
        MpiDistro::SpectrumMpi,
    ));
    // The Alltoallv run is the paper's winning configuration — it is the
    // timeline exported under --trace-out.
    let a2av_traces = backend_traces(&m, CommBackend::AllToAllV, MpiDistro::SpectrumMpi);
    let a2av = Trace::max_mpi_calls(&a2av_traces);
    let a2aw = Trace::max_mpi_calls(&backend_traces(
        &m,
        CommBackend::AllToAllW,
        MpiDistro::MvapichGdr,
    ));
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
    println!("{}", t.render());

    let sum = |v: &[SimTime]| -> f64 { v.iter().map(|t| t.as_secs()).sum() };
    println!("totals over {ncalls} calls:");
    println!("  MPI_Alltoall  (SpectrumMPI) : {:8.3} s", sum(&a2a));
    println!("  MPI_Alltoallv (SpectrumMPI) : {:8.3} s", sum(&a2av));
    println!("  MPI_Alltoallw (MVAPICH-GDR) : {:8.3} s", sum(&a2aw));
    println!();
    println!(
        "paper shape: Alltoallv fastest; padded Alltoall suffers on the\n\
         brick<->pencil reshape calls; unoptimized Alltoallw is worst."
    );
}
