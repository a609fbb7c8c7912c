//! Figure 8 — All-to-All communication with and without GPU-aware MPI for a
//! 512³ c2c FFT, 6 V100 per node: communication cost (left) and total time
//! (right) versus node count.
//!
//! Paper shape: both curves scale to 768 GPUs; disabling GPU-awareness
//! costs a roughly constant factor (≈30 % at 16 nodes, Fig. 11).

use distfft::plan::{CommBackend, FftOptions};
use fft_bench::{banner, table3_ranks, timed_average_with_comm, TextTable, N512};
use simgrid::MachineSpec;

fn main() {
    fft_bench::reject_args();
    banner(
        "Fig. 8",
        "All-to-All comm and total time vs nodes, GPU-aware on/off, 512^3",
    );
    let m = MachineSpec::summit();
    let mut t = TextTable::new(&[
        "nodes",
        "ranks",
        "comm aware (s)",
        "comm staged (s)",
        "total aware (s)",
        "total staged (s)",
        "staged/aware",
    ]);
    let ladder: Vec<usize> = table3_ranks().into_iter().filter(|&r| r <= 768).collect();
    let rows = fftmodels::par_map(&ladder, |&ranks| {
        let opts = FftOptions {
            backend: CommBackend::AllToAllV,
            ..FftOptions::default()
        };
        let (tot_a, comm_a) = timed_average_with_comm(&m, N512, ranks, opts.clone(), true);
        let (tot_s, comm_s) = timed_average_with_comm(&m, N512, ranks, opts, false);
        (ranks, tot_a, comm_a, tot_s, comm_s)
    });
    for (ranks, tot_a, comm_a, tot_s, comm_s) in rows {
        t.row(vec![
            format!("{}", ranks / 6),
            format!("{ranks}"),
            format!("{:.4}", comm_a.as_secs()),
            format!("{:.4}", comm_s.as_secs()),
            format!("{:.4}", tot_a.as_secs()),
            format!("{:.4}", tot_s.as_secs()),
            format!("{:.2}", comm_s.as_ns() as f64 / comm_a.as_ns() as f64),
        ]);
    }
    println!("{}", t.render());
    println!("paper shape: both A2A variants keep scaling to 768 GPUs; the\nstaged (non-GPU-aware) path pays a constant ~1.2-1.4x factor.");
}
