//! Figure 11 — `MPI_Alltoallv` with and without GPU-aware MPI at 16 Summit
//! nodes (96 V100): disabling GPU-awareness increases communication cost by
//! ≈30 %, because every message stages device → host → host → device.

use distfft::plan::{CommBackend, FftOptions};
use fft_bench::{banner, timed_average_with_comm, TextTable, N512};
use simgrid::MachineSpec;

fn main() {
    fft_bench::reject_args();
    banner(
        "Fig. 11",
        "Alltoallv comm cost, GPU-aware vs not, 512^3 on 16 nodes (96 V100)",
    );
    let m = MachineSpec::summit();
    let opts = FftOptions {
        backend: CommBackend::AllToAllV,
        ..FftOptions::default()
    };
    let (tot_a, comm_a) = timed_average_with_comm(&m, N512, 96, opts.clone(), true);
    let (tot_s, comm_s) = timed_average_with_comm(&m, N512, 96, opts, false);

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
    println!("{}", t.render());
    println!(
        "comm increase without GPU-awareness: {:.1}%  (paper: ~30%)",
        100.0 * (comm_s.as_ns() as f64 / comm_a.as_ns() as f64 - 1.0)
    );
}
