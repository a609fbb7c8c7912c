//! Configuration sweep utility: the full (ranks × decomposition × backend ×
//! GPU-awareness) timing landscape for a given transform size — the raw
//! data behind Figs. 5, 8 and 9, in one table.
//!
//! Usage: `cargo run --release -p fft-bench --bin sweep [n] [machine]`
//! with `n` the cubic transform extent (default 512) and `machine` one of
//! `summit` (default) or `spock`.

use crate::{timed_average, Figure, Obs, TextTable};
use distfft::plan::{CommBackend, FftOptions, FftPlan, PlanError};
use distfft::Decomp;
use simgrid::MachineSpec;

/// The `n`³ landscape on `machine`, or why its largest cell cannot be
/// planned — decided before anything runs; `obs` gets the tuned profile of
/// that cell.
pub fn sweep(n: usize, machine: &MachineSpec, obs: &Obs) -> Result<Figure, PlanError> {
    let size = [n, n, n];
    let node_counts: Vec<usize> = [1usize, 2, 4, 8, 16, 32, 64, 128]
        .iter()
        .copied()
        .filter(|nodes| nodes * machine.gpus_per_node <= 4096)
        .collect();
    let largest = node_counts
        .last()
        .map_or(1, |nodes| nodes * machine.gpus_per_node);
    FftPlan::try_build(size, largest, FftOptions::default())?;
    let mut f = Figure::new(
        "sweep",
        &format!("{n}^3 c2c configuration landscape on {}", machine.name),
    );

    let mut t = TextTable::new(&[
        "nodes",
        "ranks",
        "decomp",
        "backend",
        "gpu-aware",
        "time/FFT (ms)",
    ]);
    // Flatten the whole configuration grid, dry-run every cell in parallel,
    // and emit rows in grid order — byte-identical to the serial sweep.
    let mut grid: Vec<(usize, usize, Decomp, CommBackend, bool)> = Vec::new();
    for &nodes in &node_counts {
        let ranks = nodes * machine.gpus_per_node;
        for decomp in [Decomp::Slabs, Decomp::Pencils] {
            if decomp == Decomp::Slabs && ranks > size[0].min(size[1]) {
                continue;
            }
            for backend in [
                CommBackend::AllToAll,
                CommBackend::AllToAllV,
                CommBackend::P2p,
            ] {
                for aware in [true, false] {
                    grid.push((nodes, ranks, decomp, backend, aware));
                }
            }
        }
    }
    let times = fftmodels::par_map(&grid, |&(_, ranks, decomp, backend, aware)| {
        timed_average(
            machine,
            size,
            ranks,
            FftOptions {
                decomp,
                backend,
                ..FftOptions::default()
            },
            aware,
        )
    });
    for (&(nodes, ranks, decomp, backend, aware), time) in grid.iter().zip(times) {
        t.row(vec![
            format!("{nodes}"),
            format!("{ranks}"),
            decomp.name().to_string(),
            backend.routine().to_string(),
            if aware { "yes" } else { "no" }.to_string(),
            format!("{:.3}", time.as_ms()),
        ]);
    }
    f.table(&t);

    // --profile-out: tune the largest swept configuration, print the
    // tuner's one-paragraph "why this decomposition" to stderr, and write
    // the winner's profile (JSON + collapsed stacks).
    if obs.profiling() {
        let ranks = largest;
        let choice = fftmodels::tuner::tune(machine, size, ranks);
        eprintln!(
            "why this decomposition: {}",
            fftprof::why_decomposition(machine, size, ranks, &choice)
        );
        let profile = fftprof::profile_config(
            &format!("sweep_{n}cubed_{ranks}r_tuned"),
            machine,
            size,
            ranks,
            choice.opts.clone(),
            choice.gpu_aware,
        );
        obs.emit_profile(&profile);
    }
    Ok(f)
}
