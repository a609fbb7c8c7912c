//! Figure 7 — runtime breakdown for a 512³ c2c FFT on 24 V100s with
//! Point-to-Point communication (pencils): left, non-blocking
//! `MPI_Isend`/`MPI_Irecv` with contiguous (transposed) local FFTs; right,
//! blocking `MPI_Send`/`MPI_Irecv` with strided data.
//!
//! Paper observations: the two flavors are nearly identical; the P2P
//! communication sum is slightly below the All-to-All one at this scale,
//! and the total 3-D FFT time is "pretty much the same (~0.09 s)".

use super::fig6::two_sided;
use crate::{Bound::About, Figure};
use distfft::plan::CommBackend;

pub fn fig7() -> Figure {
    let mut f = Figure::new(
        "Fig. 7",
        "runtime breakdown, 512^3 on 24 V100, Point-to-Point backends (10 FFTs)",
    );
    let [(_, lt), (_, rt)] = two_sided(
        &mut f,
        [
            (
                "MPI_Isend/Irecv + contiguous local FFTs",
                CommBackend::P2p,
                true,
            ),
            (
                "MPI_Send/Irecv + strided local FFTs",
                CommBackend::P2pBlocking,
                false,
            ),
        ],
    );
    let ratio = f.anchor(
        "fig7.flavours",
        "non-blocking/blocking P2P total",
        About,
        1.0,
        0.019,
        lt / rt,
    );
    f.line(format!(
        "non-blocking vs blocking total ratio = {:.3}  (paper: 'pretty much the same')",
        ratio.ours
    ));
    let per_fft = f.anchor(
        "fig7.per_fft",
        "512^3 FFT on 24 GPUs (s)",
        About,
        0.09,
        0.121,
        rt / 10.0,
    );
    f.line(format!(
        "per-FFT total: {:.4} s (paper at 24 GPUs: ~{} s)",
        per_fft.ours, per_fft.paper
    ));
    f
}
