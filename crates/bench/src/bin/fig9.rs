//! Figure 9 — Point-to-Point communication with and without GPU-aware MPI
//! for a 512³ c2c FFT, 6 V100 per node: communication cost (left) and total
//! time (right) versus node count.
//!
//! Paper shape: "for up to 768 GPUs, All-to-All approaches scale quite
//! well, while the Point-to-Point approaches fail when using GPU-aware MPI.
//! If the GPU awareness is disabled, they keep scaling."

use distfft::plan::{CommBackend, FftOptions};
use fft_bench::{banner, table3_ranks, timed_average_with_comm, TextTable, N512};
use simgrid::MachineSpec;

fn main() {
    fft_bench::reject_args();
    banner(
        "Fig. 9",
        "Point-to-Point comm and total time vs nodes, GPU-aware on/off, 512^3",
    );
    let m = MachineSpec::summit();
    let mut t = TextTable::new(&[
        "nodes",
        "ranks",
        "comm aware (s)",
        "comm staged (s)",
        "total aware (s)",
        "total staged (s)",
    ]);
    let ladder: Vec<usize> = table3_ranks().into_iter().filter(|&r| r <= 768).collect();
    let rows = fftmodels::par_map(&ladder, |&ranks| {
        let opts = FftOptions {
            backend: CommBackend::P2p,
            ..FftOptions::default()
        };
        let (tot_a, comm_a) = timed_average_with_comm(&m, N512, ranks, opts.clone(), true);
        let (tot_s, comm_s) = timed_average_with_comm(&m, N512, ranks, opts, false);
        (ranks, tot_a, comm_a, tot_s, comm_s)
    });
    let mut aware_series = Vec::new();
    for (ranks, tot_a, comm_a, tot_s, comm_s) in rows {
        aware_series.push((ranks, comm_a));
        t.row(vec![
            format!("{}", ranks / 6),
            format!("{ranks}"),
            format!("{:.4}", comm_a.as_secs()),
            format!("{:.4}", comm_s.as_secs()),
            format!("{:.4}", tot_a.as_secs()),
            format!("{:.4}", tot_s.as_secs()),
        ]);
    }
    println!("{}", t.render());
    // Find the scaling bottom among multi-node points (a single node is
    // all-NVLink and not comparable).
    let min = aware_series
        .iter()
        .filter(|(r, _)| *r > 6)
        .min_by_key(|(_, c)| *c)
        .expect("non-empty");
    let last = aware_series.last().expect("non-empty");
    println!(
        "GPU-aware P2P comm bottoms out at {} ranks ({:.4} s) then grows to\n\
         {:.4} s at {} ranks — the Fig. 9 scalability failure; the staged\n\
         path keeps scaling.",
        min.0,
        min.1.as_secs(),
        last.1.as_secs(),
        last.0
    );
}
