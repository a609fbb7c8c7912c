//! Figure 13 — batched computation of a 3-D FFT of size 64³ on NVIDIA
//! (Summit, 6 MPI/node) and AMD (Spock, 4 MPI/node) GPUs, 1 MPI per GPU:
//! per-transform cost inside a batch versus an isolated (non-batched)
//! transform. Paper: "we observe speedups of over 2× with respect to the
//! not batched version", from communication/computation overlap; Spock was
//! limited to 4 nodes at publication time.

use distfft::plan::FftOptions;
use fft_bench::{banner, TextTable, N64};
use miniapps::spectral::batching_comparison;
use simgrid::MachineSpec;

fn side(m: &MachineSpec, node_counts: &[usize], batch: usize) {
    println!(
        "--- {} ({} MPI ranks per node), batch = {batch}",
        m.name, m.gpus_per_node
    );
    let mut t = TextTable::new(&[
        "nodes",
        "ranks",
        "batched (ms/FFT)",
        "isolated (ms/FFT)",
        "speedup",
    ]);
    for &nodes in node_counts {
        let ranks = nodes * m.gpus_per_node;
        let (batched, single) = batching_comparison(m, N64, ranks, batch, &FftOptions::default());
        t.row(vec![
            format!("{nodes}"),
            format!("{ranks}"),
            format!("{:.3}", batched.as_ms()),
            format!("{:.3}", single.as_ms()),
            format!("{:.2}x", single.as_ns() as f64 / batched.as_ns() as f64),
        ]);
    }
    println!("{}", t.render());
}

fn main() {
    fft_bench::reject_args();
    banner(
        "Fig. 13",
        "batched 64^3 c2c FFT: per-transform cost, batched vs isolated",
    );
    let batch = 16;
    side(&MachineSpec::summit(), &[1, 2, 4, 8], batch);
    // Spock was a prototype: the paper could not use more than 4 nodes.
    side(&MachineSpec::spock(), &[1, 2, 4], batch);
    println!("paper shape: >2x speedup per transform from batching on both vendors.");
}
