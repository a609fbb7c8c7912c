//! Figure 6 — runtime breakdown for a 512³ c2c FFT on 24 V100s with
//! All-to-All communication (pencils): left, `MPI_Alltoall` with contiguous
//! (transposed) local FFTs; right, `MPI_Alltoallv` with strided data.
//!
//! Paper observations: the padded `Alltoall` shows higher runtime and
//! variability than `Alltoallv`; the gap comes from the brick↔pencil
//! reshapes where padding is large, while on the intermediate (pencil)
//! grids the difference is negligible; the contiguous FFT kernels are
//! faster but the transposing unpack is costlier.

use distfft::plan::{CommBackend, FftOptions};
use fft_bench::{banner, print_breakdown_side, protocol_breakdown, N512};
use simgrid::MachineSpec;

fn main() {
    fft_bench::reject_args();
    banner(
        "Fig. 6",
        "runtime breakdown, 512^3 on 24 V100, All-to-All backends (10 FFTs)",
    );
    let m = MachineSpec::summit();
    let left = protocol_breakdown(
        &m,
        N512,
        24,
        FftOptions {
            backend: CommBackend::AllToAll,
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
            backend: CommBackend::AllToAllV,
            ..FftOptions::default()
        },
        true,
        0.04,
    );
    let lt = print_breakdown_side("MPI_Alltoall + contiguous (transposed) local FFTs", &left);
    let rt = print_breakdown_side("MPI_Alltoallv + strided local FFTs", &right);
    println!(
        "Alltoall/Alltoallv total ratio = {:.2}  (paper: padding makes Alltoall slower)",
        lt / rt
    );
}
