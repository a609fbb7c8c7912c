//! Figure 13 — batched computation of a 3-D FFT of size 64³ on NVIDIA
//! (Summit, 6 MPI/node) and AMD (Spock, 4 MPI/node) GPUs, 1 MPI per GPU:
//! per-transform cost inside a batch versus an isolated (non-batched)
//! transform. Paper: "we observe speedups of over 2× with respect to the
//! not batched version", from communication/computation overlap; Spock was
//! limited to 4 nodes at publication time.

use crate::{Bound::Above, Figure, TextTable, N64};
use distfft::plan::FftOptions;
use miniapps::spectral::batching_comparison;
use simgrid::MachineSpec;

/// One machine's table; returns its speedups.
fn side(f: &mut Figure, m: &MachineSpec, node_counts: &[usize], batch: usize) -> Vec<f64> {
    f.line(format!(
        "--- {} ({} MPI ranks per node), batch = {batch}",
        m.name, m.gpus_per_node
    ));
    let mut t = TextTable::new(&[
        "nodes",
        "ranks",
        "batched (ms/FFT)",
        "isolated (ms/FFT)",
        "speedup",
    ]);
    let mut speedups = Vec::new();
    for &nodes in node_counts {
        let ranks = nodes * m.gpus_per_node;
        let (batched, single) = batching_comparison(m, N64, ranks, batch, &FftOptions::default());
        let speedup = single.as_ns() as f64 / batched.as_ns() as f64;
        speedups.push(speedup);
        t.row(vec![
            format!("{nodes}"),
            format!("{ranks}"),
            format!("{:.3}", batched.as_ms()),
            format!("{:.3}", single.as_ms()),
            format!("{speedup:.2}x"),
        ]);
    }
    f.table(&t);
    speedups
}

pub fn fig13() -> Figure {
    let mut f = Figure::new(
        "Fig. 13",
        "batched 64^3 c2c FFT: per-transform cost, batched vs isolated",
    );
    let batch = 16;
    let mut speedups = side(&mut f, &MachineSpec::summit(), &[1, 2, 4, 8], batch);
    // Spock was a prototype: the paper could not use more than 4 nodes.
    speedups.extend(side(&mut f, &MachineSpec::spock(), &[1, 2, 4], batch));
    let batching = f.anchor(
        "fig13.batching",
        "min batching speedup, both vendors",
        Above,
        2.0,
        0.223,
        speedups.into_iter().fold(f64::INFINITY, f64::min),
    );
    f.line(format!(
        "paper shape: >{}x speedup per transform from batching on both vendors.",
        batching.paper
    ));
    f
}
