//! Table I — MPI routines available in parallel FFT libraries, mapped to
//! this reproduction's exchange backends. Every routine in the heFFTe row
//! (the library the paper extends) exists as a `CommBackend`.

use crate::{Figure, TextTable};
use distfft::plan::CommBackend;

pub fn table1() -> Figure {
    let mut f = Figure::new(
        "Table I",
        "MPI routines in FFT libraries vs this reproduction",
    );
    let mut t = TextTable::new(&["library", "All-to-All", "Point-to-Point"]);
    for (lib, a2a, p2p) in [
        (
            "AccFFT",
            "MPI_Alltoall",
            "MPI_Isend/MPI_Irecv, MPI_Sendrecv",
        ),
        ("FFTE", "MPI_Alltoall, MPI_Alltoallv", "-"),
        ("fftMPI", "MPI_Alltoallv", "MPI_Send/MPI_Irecv"),
        (
            "heFFTe",
            "MPI_Alltoall, MPI_Alltoallv",
            "MPI_Send/MPI_Isend, MPI_Irecv",
        ),
        ("Dalcin et al.", "MPI_Alltoallw", "-"),
        ("P3DFFT", "MPI_Alltoallv", "MPI_Send/MPI_Irecv"),
    ] {
        t.row(vec![lib.into(), a2a.into(), p2p.into()]);
    }
    f.table(&t);

    f.line("this reproduction's backends:");
    for b in [
        CommBackend::AllToAll,
        CommBackend::AllToAllV,
        CommBackend::AllToAllW,
        CommBackend::P2p,
        CommBackend::P2pBlocking,
    ] {
        f.line(format!("  {:?} -> {}", b, b.routine()));
    }
    f
}
