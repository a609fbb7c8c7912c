//! Figure 12 — runtime breakdown of the LAMMPS Rhodopsin benchmark (32 K
//! atoms, fixed 512³ PPPM grid) on 32 Summit nodes (192 V100, 1 MPI/GPU):
//! default fftMPI (pencils, host-staged MPI) versus tuned heFFTe (settings
//! guided by Fig. 5). Paper: "the runtime for the KSPACE computation is
//! reduced around 40%".

use crate::{Bound::About, Figure, TextTable};
use miniapps::md::{run_rhodopsin, RhodopsinConfig};
use simgrid::MachineSpec;

pub fn fig12() -> Figure {
    let mut f = Figure::new(
        "Fig. 12",
        "LAMMPS Rhodopsin breakdown, 32K atoms, 512^3 grid, 32 nodes",
    );
    let m = MachineSpec::summit();
    let steps = 10;
    let default = run_rhodopsin(&m, &RhodopsinConfig::fftmpi_default(steps));
    let tuned = run_rhodopsin(&m, &RhodopsinConfig::heffte_tuned(steps));

    let mut t = TextTable::new(&["phase", "fftMPI default (s)", "heFFTe tuned (s)"]);
    for ((label, a), (_, b)) in default.rows().into_iter().zip(tuned.rows()) {
        t.row(vec![
            label.to_string(),
            format!("{:.4}", a.as_secs()),
            format!("{:.4}", b.as_secs()),
        ]);
    }
    t.row(vec![
        "TOTAL".into(),
        format!("{:.4}", default.total().as_secs()),
        format!("{:.4}", tuned.total().as_secs()),
    ]);
    f.table(&t);
    let cut = 100.0 * (1.0 - tuned.kspace.as_ns() as f64 / default.kspace.as_ns() as f64);
    let kspace = f.anchor(
        "fig12.kspace",
        "KSPACE cut, tuned heFFTe (%)",
        About,
        40.0,
        0.321,
        cut,
    );
    f.line(format!(
        "KSPACE reduction: {:.1}%  (paper: ~{}%)",
        kspace.ours, kspace.paper
    ));
    f.line(format!(
        "total reduction:  {:.1}%",
        100.0 * (1.0 - tuned.total().as_ns() as f64 / default.total().as_ns() as f64)
    ));
    f
}
