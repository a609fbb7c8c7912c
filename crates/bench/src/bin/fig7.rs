//! Figure 7 — runtime breakdown for a 512³ c2c FFT on 24 V100s with
//! Point-to-Point communication (pencils): left, non-blocking
//! `MPI_Isend`/`MPI_Irecv` with contiguous (transposed) local FFTs; right,
//! blocking `MPI_Send`/`MPI_Irecv` with strided data.
//!
//! Paper observations: the two flavors are nearly identical; the P2P
//! communication sum is slightly below the All-to-All one at this scale,
//! and the total 3-D FFT time is "pretty much the same (~0.09 s)".

use distfft::plan::{CommBackend, FftOptions};
use fft_bench::{banner, print_breakdown_side, protocol_breakdown, N512};
use simgrid::MachineSpec;

fn main() {
    fft_bench::reject_args();
    banner(
        "Fig. 7",
        "runtime breakdown, 512^3 on 24 V100, Point-to-Point backends (10 FFTs)",
    );
    let m = MachineSpec::summit();
    let left = protocol_breakdown(
        &m,
        N512,
        24,
        FftOptions {
            backend: CommBackend::P2p,
            contiguous_fft: true,
            ..FftOptions::default()
        },
        true,
        0.04,
    );
    let right = protocol_breakdown(
        &m,
        N512,
        24,
        FftOptions {
            backend: CommBackend::P2pBlocking,
            ..FftOptions::default()
        },
        true,
        0.04,
    );
    let lt = print_breakdown_side("MPI_Isend/Irecv + contiguous local FFTs", &left);
    let rt = print_breakdown_side("MPI_Send/Irecv + strided local FFTs", &right);
    println!(
        "non-blocking vs blocking total ratio = {:.3}  (paper: 'pretty much the same')",
        lt / rt
    );
    println!(
        "per-FFT total: {:.4} s (paper at 24 GPUs: ~0.09 s)",
        rt / 10.0
    );
}
