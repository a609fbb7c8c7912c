//! Figure 9 — Point-to-Point communication with and without GPU-aware MPI
//! for a 512³ c2c FFT, 6 V100 per node: communication cost (left) and total
//! time (right) versus node count.
//!
//! Paper shape: "for up to 768 GPUs, All-to-All approaches scale quite
//! well, while the Point-to-Point approaches fail when using GPU-aware MPI.
//! If the GPU awareness is disabled, they keep scaling."

use super::fig8::{ladder, LADDER};
use crate::{Figure, TextTable};
use distfft::plan::CommBackend;
use simgrid::SimTime;

pub fn fig9() -> Figure {
    let mut f = Figure::new(
        "Fig. 9",
        "Point-to-Point comm and total time vs nodes, GPU-aware on/off, 512^3",
    );
    let mut t = TextTable::new(&LADDER);
    let mut aware: Vec<(usize, SimTime)> = Vec::new();
    for (ranks, [(_, comm), _], row) in ladder(CommBackend::P2p) {
        aware.push((ranks, comm));
        t.row(row);
    }
    f.table(&t);
    // Find the scaling bottom among multi-node points (a single node is
    // all-NVLink and not comparable).
    let multi_node = aware.iter().filter(|(r, _)| *r > 6);
    if let (Some(min), Some(last)) = (multi_node.min_by_key(|(_, c)| *c), aware.last()) {
        f.line(format!(
            "GPU-aware P2P comm bottoms out at {} ranks ({:.4} s) then grows to\n\
             {:.4} s at {} ranks — the Fig. 9 scalability failure; the staged\n\
             path keeps scaling.",
            min.0,
            min.1.as_secs(),
            last.1.as_secs(),
            last.0
        ));
    }
    f
}
