//! Observability acceptance tests: the Chrome-trace export of a real
//! protocol run must round-trip through the JSON reader with per-rank
//! pids and the paper's phase names, and enabling metrics must not perturb
//! the simulated timeline at all; and the harness command line must fail
//! loudly on arguments it does not understand.

use distfft::plan::FftOptions;
use distfft::trace::{export_chrome_trace, phase_summary};
use fft_bench::protocol_traces;
use fftobs::json::{self, Json};
use simgrid::MachineSpec;

fn run_traces() -> Vec<distfft::Trace> {
    protocol_traces(
        &MachineSpec::summit(),
        [32, 32, 32],
        12,
        FftOptions::default(),
        true,
        0.0,
    )
}

#[test]
fn chrome_export_roundtrips_with_phases_and_ranks() {
    let traces = run_traces();
    let text = export_chrome_trace(&traces);
    let doc = json::parse(&text).expect("export must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");

    let mut pids = std::collections::BTreeSet::new();
    let mut names = std::collections::BTreeSet::new();
    let mut tids = std::collections::BTreeSet::new();
    let mut n_complete = 0;
    for e in events {
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        n_complete += 1;
        for field in ["name", "pid", "tid", "ts", "dur"] {
            assert!(e.get(field).is_some(), "X event missing {field}");
        }
        pids.insert(e.get("pid").and_then(Json::as_f64).unwrap() as i64);
        tids.insert(e.get("tid").and_then(Json::as_f64).unwrap() as i64);
        names.insert(e.get("name").and_then(Json::as_str).unwrap().to_string());
    }
    assert!(n_complete > 0, "no complete events exported");
    // One pid per rank.
    assert_eq!(
        pids.into_iter().collect::<Vec<_>>(),
        (0..12).collect::<Vec<i64>>()
    );
    // Both resource lanes appear.
    assert_eq!(tids.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    // The paper's phases: local kernels + the MPI routine.
    for want in ["FFT", "pack", "unpack"] {
        assert!(names.contains(want), "missing phase {want}: {names:?}");
    }
    assert!(
        names.iter().any(|n| n.starts_with("MPI_")),
        "missing MPI phase: {names:?}"
    );

    // The summary table covers the same phases.
    let summary = phase_summary(&traces);
    assert!(
        summary.contains("FFT") && summary.contains("pack"),
        "{summary}"
    );
}

#[test]
fn enabling_metrics_does_not_change_the_timeline() {
    // Instrumentation observes — it must never steer. The event streams of
    // an instrumented and an uninstrumented run must be identical.
    fftobs::set_enabled(false);
    let quiet = run_traces();
    fftobs::set_enabled(true);
    let observed = run_traces();
    fftobs::set_enabled(false);
    assert_eq!(quiet.len(), observed.len());
    for (r, (a, b)) in quiet.iter().zip(observed.iter()).enumerate() {
        assert_eq!(a.events, b.events, "rank {r} timeline perturbed by metrics");
    }
    // And the metrics actually recorded something while enabled.
    let snap = fftobs::registry().snapshot();
    assert!(
        snap.counter("distfft.events.mpi").unwrap_or(0) > 0,
        "instrumented run recorded no MPI events"
    );
}

#[test]
fn sweep_rejects_bad_arguments_before_running() {
    // A typo must not silently sweep the default size or drop an output:
    // exit 2, one line on stderr, nothing on stdout.
    for args in [
        &["1O24"][..],
        &["0"],
        &["--profile-ou", "f"],
        &["64", "--trace-out"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(args)
            .output()
            .expect("sweep binary runs");
        assert_eq!(out.status.code(), Some(2), "sweep {args:?}");
        assert!(out.stdout.is_empty(), "sweep {args:?} wrote to stdout");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert_eq!(stderr.lines().count(), 1, "sweep {args:?}: {stderr}");
    }
}
