//! Figure 6 — runtime breakdown for a 512³ c2c FFT on 24 V100s with
//! All-to-All communication (pencils): left, `MPI_Alltoall` with contiguous
//! (transposed) local FFTs; right, `MPI_Alltoallv` with strided data.
//!
//! Paper observations: the padded `Alltoall` shows higher runtime and
//! variability than `Alltoallv`; the gap comes from the brick↔pencil
//! reshapes where padding is large, while on the intermediate (pencil)
//! grids the difference is negligible; the contiguous FFT kernels are
//! faster but the transposing unpack is costlier. §II adds that
//! communication takes over 90 % of the runtime and pack/unpack under 10 %.

use crate::{
    Bound::{Above, Below},
    Figure, TextTable,
};
use distfft::plan::CommBackend;
use mpisim::MpiDistro;
use simgrid::SimTime;
use std::collections::BTreeMap;

pub fn fig6() -> Figure {
    let mut f = Figure::new(
        "Fig. 6",
        "runtime breakdown, 512^3 on 24 V100, All-to-All backends (10 FFTs)",
    );
    let [(_, lt), (right, rt)] = two_sided(
        &mut f,
        [
            (
                "MPI_Alltoall + contiguous (transposed) local FFTs",
                CommBackend::AllToAll,
                true,
            ),
            (
                "MPI_Alltoallv + strided local FFTs",
                CommBackend::AllToAllV,
                false,
            ),
        ],
    );
    f.line(format!(
        "Alltoall/Alltoallv total ratio = {:.2}  (paper: padding makes Alltoall slower)",
        lt / rt
    ));
    let share = |labels: &[&str]| -> f64 {
        let secs = right.iter().filter(|(l, _)| labels.contains(l));
        100.0 * secs.map(|(_, v)| v.as_secs()).sum::<f64>() / rt
    };
    f.anchor(
        "sec2.comm",
        "A2AV comm share, 24 GPUs (%)",
        Above,
        90.0,
        0.0,
        share(&[CommBackend::AllToAllV.routine()]),
    );
    f.anchor(
        "sec2.pack",
        "A2AV pack+unpack share (%)",
        Below,
        10.0,
        0.0,
        share(&["pack", "unpack"]),
    );
    f
}

/// The Figs. 6/7 body: for each `(title, backend, contiguous FFTs)` side,
/// the protocol's runtime per category — the MPI routine, then each kernel
/// label, max across ranks — printed as a table with shares, and returned
/// with its total in seconds.
pub(super) fn two_sided(
    f: &mut Figure,
    sides: [(&str, CommBackend, bool); 2],
) -> [(Vec<(&'static str, SimTime)>, f64); 2] {
    sides.map(|(title, backend, contiguous)| {
        let traces = super::traces_on_24(backend, contiguous, MpiDistro::SpectrumMpi, 0.04);
        let comm = traces
            .iter()
            .map(|t| t.comm_total())
            .fold(SimTime::ZERO, SimTime::max);
        let mut kernels: BTreeMap<&'static str, SimTime> = BTreeMap::new();
        for (label, v) in traces.iter().flat_map(|t| t.kernel_breakdown()) {
            let max = kernels.entry(label).or_insert(SimTime::ZERO);
            *max = (*max).max(v);
        }
        let mut rows = vec![(backend.routine(), comm)];
        rows.extend(kernels);

        f.line(format!("--- {title}"));
        let mut t = TextTable::new(&["kernel", "total (s)", "share"]);
        let total: f64 = rows.iter().map(|(_, v)| v.as_secs()).sum();
        for (label, v) in &rows {
            t.row(vec![
                label.to_string(),
                format!("{:.4}", v.as_secs()),
                format!("{:5.1}%", 100.0 * v.as_secs() / total),
            ]);
        }
        t.row(vec!["TOTAL".into(), format!("{total:.4}"), "100.0%".into()]);
        f.table(&t);
        (rows, total)
    })
}
