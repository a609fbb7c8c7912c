//! Figure 8 — All-to-All communication with and without GPU-aware MPI for a
//! 512³ c2c FFT, 6 V100 per node: communication cost (left) and total time
//! (right) versus node count.
//!
//! Paper shape: both curves scale to 768 GPUs; disabling GPU-awareness
//! costs a roughly constant factor (≈30 % at 16 nodes, Fig. 11).

use crate::{table3_ranks, timed_average_with_comm, Figure, TextTable, N512};
use distfft::plan::{CommBackend, FftOptions};
use simgrid::{MachineSpec, SimTime};

pub fn fig8() -> Figure {
    let mut f = Figure::new(
        "Fig. 8",
        "All-to-All comm and total time vs nodes, GPU-aware on/off, 512^3",
    );
    let mut t = TextTable::new(&[LADDER.as_slice(), &["staged/aware"]].concat());
    for (_, [(_, comm_a), (_, comm_s)], mut row) in ladder(CommBackend::AllToAllV) {
        row.push(format!(
            "{:.2}",
            comm_s.as_ns() as f64 / comm_a.as_ns() as f64
        ));
        t.row(row);
    }
    f.table(&t);
    f.line("paper shape: both A2A variants keep scaling to 768 GPUs; the\nstaged (non-GPU-aware) path pays a constant ~1.2-1.4x factor.");
    f
}

/// One rung of the Figs. 8/9 ladders: the protocol's average `(total,
/// comm)` per 512³ transform, GPU-aware then host-staged.
pub(super) type Rung = [(SimTime, SimTime); 2];

/// `backend`'s [`Rung`] on `ranks` Summit GPUs; Fig. 11 is the 96-rank one.
pub(super) fn aware_staged(backend: CommBackend, ranks: usize) -> Rung {
    let m = MachineSpec::summit();
    [true, false].map(|gpu_aware| {
        let opts = FftOptions {
            backend,
            ..FftOptions::default()
        };
        timed_average_with_comm(&m, N512, ranks, opts, gpu_aware)
    })
}

/// The columns of a [`ladder`] row.
pub(super) const LADDER: [&str; 6] = [
    "nodes",
    "ranks",
    "comm aware (s)",
    "comm staged (s)",
    "total aware (s)",
    "total staged (s)",
];

/// The Figs. 8/9 ladder: `backend`'s rung at each Table III rank count up
/// to 128 nodes, as `(ranks, rung, table row)`.
pub(super) fn ladder(backend: CommBackend) -> Vec<(usize, Rung, Vec<String>)> {
    let ladder: Vec<usize> = table3_ranks().into_iter().filter(|&r| r <= 768).collect();
    fftmodels::par_map(&ladder, |&ranks| {
        let rung @ [(tot_a, comm_a), (tot_s, comm_s)] = aware_staged(backend, ranks);
        let row = vec![
            format!("{}", ranks / 6),
            format!("{ranks}"),
            format!("{:.4}", comm_a.as_secs()),
            format!("{:.4}", comm_s.as_secs()),
            format!("{:.4}", tot_a.as_secs()),
            format!("{:.4}", tot_s.as_secs()),
        ];
        (ranks, rung, row)
    })
}
