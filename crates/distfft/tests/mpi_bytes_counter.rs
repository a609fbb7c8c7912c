//! The one counter the engine records into the `fftobs` registry.
//!
//! `Trace::push` adds each MPI call's bytes to `distfft.bytes.mpi_sent`
//! and registers nothing else. The benchmark reads that counter back and
//! requires it to equal the bytes the plan implies, so it must count
//! exactly the `MpiCall` bytes of the traces. The enable switch and the
//! registry are process-global, so this test has its own binary.

use distfft::dryrun::{DryRunOpts, DryRunner};
use distfft::plan::{CommBackend, FftOptions, FftPlan};
use distfft::trace::TraceEvent;
use fftkern::Direction;
use simgrid::MachineSpec;

#[test]
fn the_registry_holds_only_the_mpi_bytes_counter() {
    let opts = FftOptions {
        backend: CommBackend::AllToAllV,
        reshape_chunks: 4,
        ..FftOptions::default()
    };
    let plan = FftPlan::build([32; 3], 12, opts);
    let machine = MachineSpec::summit();
    let mut runner = DryRunner::new(&plan, &machine, DryRunOpts::default());

    fftobs::set_enabled(true);
    fftobs::registry().reset();
    let report = runner.run(Direction::Forward);
    fftobs::set_enabled(false);

    let traced: u64 = report
        .traces
        .iter()
        .flat_map(|t| &t.events)
        .map(|e| match e {
            TraceEvent::MpiCall { bytes, .. } => *bytes as u64,
            TraceEvent::Kernel { .. } => 0,
        })
        .sum();
    assert!(traced > 0, "a 12-rank transform sends bytes");
    let snap = fftobs::registry().snapshot();
    assert_eq!(snap.counter("distfft.bytes.mpi_sent"), Some(traced));
    let names: Vec<&str> = snap
        .counters
        .iter()
        .map(|c| c.name)
        .filter(|n| n.starts_with("distfft."))
        .collect();
    assert_eq!(names, ["distfft.bytes.mpi_sent"]);
}
