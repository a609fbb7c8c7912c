//! Figure 10 — time per batched 1-D cuFFT call of size 512 inside the 3-D
//! FFT computation: contiguous input runs at a flat ≈15 µs per call, while
//! strided input shows a considerable spike (and a tall first call from
//! plan setup). "Indeed, this also happens when using FFTW and rocFFT."

use crate::{Bound::About, Figure, Obs, TextTable, N512};
use distfft::plan::CommBackend;
use mpisim::MpiDistro;

/// Fig. 10; the contiguous timeline goes to `obs`.
pub fn fig10(obs: &Obs) -> Figure {
    let mut f = Figure::new(
        "Fig. 10",
        "batched 1-D FFT (n=512) call times inside the 3-D FFT, 24 V100",
    );
    let series = |contiguous: bool| {
        let backend = if contiguous {
            CommBackend::AllToAll
        } else {
            CommBackend::AllToAllV
        };
        let traces = super::traces_on_24(backend, contiguous, MpiDistro::SpectrumMpi, 0.03);
        // Per-call kernel durations on rank 0. The dry run prices one
        // kernel launch per axis pass; real cuFFT splits it into chunks of
        // ~512 rows per call — rescale to the paper's per-call granularity.
        let rows_per_pass = (N512[0] * N512[1] * N512[2]) / 24 / 512;
        let calls_per_pass = rows_per_pass / 512;
        let durs = traces[0]
            .fft_call_durations()
            .iter()
            .map(|d| d.as_us() / calls_per_pass as f64)
            .collect::<Vec<f64>>();
        (durs, traces)
    };
    let (contiguous, contiguous_traces) = series(true);
    let (strided, _) = series(false);
    // The contiguous run is the timeline exported under --trace-out.
    obs.emit(&contiguous_traces);

    let mut t = TextTable::new(&["pass", "contiguous (µs/call)", "strided (µs/call)"]);
    for i in 0..contiguous.len().min(strided.len()).min(30) {
        t.row(vec![
            format!("{}", i + 1),
            format!("{:.1}", contiguous[i]),
            format!("{:.1}", strided[i]),
        ]);
    }
    f.table(&t);

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let cavg = avg(&contiguous);
    let call = f.anchor(
        "fig10.call",
        "contiguous 512-point call (us)",
        About,
        15.0,
        0.298,
        cavg,
    );
    let smax = strided.iter().cloned().fold(0.0, f64::max);
    f.line(format!(
        "contiguous average: {cavg:.1} µs/call (paper: ~{} µs)",
        call.paper
    ));
    f.line(format!(
        "strided spike: {smax:.1} µs/call = {:.1}x the contiguous average\n\
         (paper: 'the difference is considerable')",
        smax / cavg
    ));
    f
}
