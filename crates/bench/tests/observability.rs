//! Observability acceptance tests: the Chrome-trace export of a real
//! protocol run must round-trip through the JSON reader with per-rank
//! pids and the paper's phase names, and enabling metrics must not perturb
//! the simulated timeline at all; the harness command line must fail
//! loudly on arguments it does not understand, and its `--trace-out` /
//! `--profile-out` flags must leave stdout untouched while writing exports
//! that validate and replay byte for byte.

use distfft::plan::FftOptions;
use distfft::trace::{export_chrome_trace, phase_summary};
use fft_bench::{merged_traces, protocol_runs};
use fftobs::json::{self, Json};
use simgrid::MachineSpec;
use std::process::Command;

fn run_traces() -> Vec<distfft::Trace> {
    let m = MachineSpec::summit();
    let opts = FftOptions::default();
    let runs = protocol_runs(&m, [32, 32, 32], 12, opts, Default::default(), |r| r.traces);
    merged_traces(runs)
}

/// A Chrome-trace export of `ranks` ranks: valid JSON, complete events
/// with every field, one pid per rank, both resource lanes, and the
/// paper's phases (local kernels + the MPI routine).
fn assert_chrome_trace(text: &str, ranks: i64) {
    let doc = json::parse(text).expect("export must be valid JSON");
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
    assert_eq!(
        pids.into_iter().collect::<Vec<_>>(),
        (0..ranks).collect::<Vec<i64>>()
    );
    assert_eq!(tids.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    for want in ["FFT", "pack", "unpack"] {
        assert!(names.contains(want), "missing phase {want}: {names:?}");
    }
    assert!(
        names.iter().any(|n| n.starts_with("MPI_")),
        "missing MPI phase: {names:?}"
    );
}

#[test]
fn chrome_export_roundtrips_with_phases_and_ranks() {
    let traces = run_traces();
    assert_chrome_trace(&export_chrome_trace(&traces), 12);

    // The summary table covers the same phases.
    let summary = phase_summary(&traces);
    assert!(
        summary.contains("FFT") && summary.contains("pack"),
        "{summary}"
    );
}

/// Runs a figure binary to completion and returns its stdout.
fn stdout_of(cmd: &mut Command) -> Vec<u8> {
    let out = cmd.output().expect("figure binary runs");
    assert!(out.status.success(), "{cmd:?} failed");
    out.stdout
}

/// Reads and removes a file a figure binary was asked to write.
fn take_file(path: &str) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    std::fs::remove_file(path).ok();
    text
}

#[test]
fn fig2_flags_are_invisible_on_stdout_and_export_validates() {
    // The observability layer must be invisible on stdout, and what it
    // writes through the real command line must be the validated export.
    let fig2 = || Command::new(env!("CARGO_BIN_EXE_fig2"));
    let trace = concat!(env!("CARGO_TARGET_TMPDIR"), "/fig2.json");
    let flagged = stdout_of(fig2().args(["--trace-out", trace]));
    assert!(
        stdout_of(&mut fig2()) == flagged,
        "flags changed fig2 stdout"
    );
    assert_chrome_trace(&take_file(trace), 24);
}

#[test]
fn fig5_profile_out_is_invisible_replayable_and_valid() {
    // The node cap trims the 512-node ladder so this stays fast.
    let fig5 = || {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig5"));
        cmd.arg("8");
        cmd
    };
    let plain = stdout_of(&mut fig5());
    let profiled = |path: &str| {
        let flagged = stdout_of(fig5().args(["--profile-out", path]));
        assert!(plain == flagged, "--profile-out changed fig5 stdout");
        (take_file(path), take_file(&format!("{path}.folded")))
    };
    let (text, folded) = profiled(concat!(env!("CARGO_TARGET_TMPDIR"), "/fig5.a.json"));
    assert!(!folded.is_empty(), "collapsed-stack sidecar is empty");
    // Simulated time has no noise: a second run writes the same bytes.
    let again = profiled(concat!(env!("CARGO_TARGET_TMPDIR"), "/fig5.b.json"));
    assert!(
        (text.clone(), folded) == again,
        "fig5 profile is not replayable"
    );

    fn num(j: &Json, key: &str) -> f64 {
        let n = j.get(key).and_then(Json::as_f64);
        n.unwrap_or_else(|| panic!("missing numeric field {key}"))
    }
    fn rows<'a>(j: &'a Json, key: &str) -> &'a [Json] {
        let a = j.get(key).and_then(Json::as_array);
        a.unwrap_or_else(|| panic!("missing array {key}"))
    }
    let doc = json::parse(&text).expect("profile must be valid JSON");
    let schema = doc.get("schema").and_then(Json::as_str);
    assert_eq!(schema, Some("fftprof-profile-v1"));
    let makespan = num(&doc, "makespan_ns");
    assert_eq!(rows(&doc, "phases").len() as f64, num(&doc, "nranks"));
    for row in rows(&doc, "phases") {
        let sum: f64 = fftprof::PHASES.iter().map(|p| num(row, p.label())).sum();
        assert_eq!(sum, makespan, "phase row does not tile the makespan");
        assert_eq!(num(row, "total_ns"), makespan);
    }
    let cp = doc.get("critical_path").expect("critical_path block");
    assert!(num(cp, "busy_ns") > 0.0);
    assert!(num(cp, "busy_ns") + num(cp, "idle_ns") <= makespan);
    assert!(!rows(cp, "segments").is_empty());
    let model = doc.get("model").expect("model block");
    let comm = |key| num(model, key);
    assert_eq!(
        comm("residual_ns"),
        comm("measured_comm_ns") - comm("predicted_comm_ns")
    );
    let contention = doc.get("contention").expect("contention block");
    for c in rows(contention, "by_reshape") {
        assert_eq!(num(c, "actual_ns"), num(c, "ideal_ns") + num(c, "queue_ns"));
    }
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
        snap.counter("distfft.bytes.mpi_sent").unwrap_or(0) > 0,
        "instrumented run recorded no MPI bytes"
    );
}

/// Asserts the usage-error contract on one binary: exit 2, one line on
/// stderr naming `culprit`, nothing on stdout.
fn assert_rejected(bin: &str, exe: &str, args: &[&str], culprit: &str) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .expect("harness binary runs");
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} wrote to stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(culprit), "{bin} {args:?}: {stderr}");
}

#[test]
fn sweep_rejects_bad_arguments_before_running() {
    // A typo must not silently sweep the default size or drop an output:
    // exit 2, one line on stderr, nothing on stdout.
    for (args, culprit) in [
        (&["1O24"][..], "1O24"),
        (&["0"], "'0'"),
        (&["--profile-ou", "f"], "--profile-ou"),
        (&["64", "--trace-out"], "--trace-out"),
        (&["64", "summit", "spock"], "'spock'"),
        // Too small a domain for the largest cell's pencil grid.
        (&["4"], "'4'"),
    ] {
        assert_rejected("sweep", env!("CARGO_BIN_EXE_sweep"), args, culprit);
    }
}

/// `(name, path)` of each named harness binary (`env!` needs literals).
macro_rules! bins {
    ($($bin:ident),*) => {
        [$((stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))))),*]
    };
}

#[test]
fn figure_binaries_reject_arguments_they_do_not_consume() {
    // The flag-taking figures drop no positional, take only the flag of
    // the export they write (`fig2 --profile-out f` would run the whole
    // figure and write nothing), fig5 takes one node cap and rejects a bad
    // one, and the harnesses that read no arguments at all do not run the
    // whole figure on `fig7 --trace-out f` and write nothing: the first
    // unconsumed argument is named.
    for (bin, exe) in bins![fig2, fig3, fig10] {
        assert_rejected(bin, exe, &["--trace-out", "f", "1O24", "--bogus"], "'1O24'");
        assert_rejected(bin, exe, &["--metrics"], "'--metrics'");
        assert_rejected(bin, exe, &["--profile-out", "f"], "'--profile-out'");
    }
    let fig4 = env!("CARGO_BIN_EXE_fig4");
    assert_rejected(
        "fig4",
        fig4,
        &["--profile-out", "f", "1O24", "--bogus"],
        "'1O24'",
    );
    for (bin, exe) in bins![fig4, fig5, sweep] {
        assert_rejected(bin, exe, &["--metrics"], "'--metrics'");
        assert_rejected(bin, exe, &["--trace-out", "f"], "'--trace-out'");
    }
    let fig5 = env!("CARGO_BIN_EXE_fig5");
    assert_rejected("fig5", fig5, &["--profile-out", "f", "1O24"], "'1O24'");
    assert_rejected("fig5", fig5, &["0"], "'0'");
    assert_rejected("fig5", fig5, &["8", "16"], "'16'");
    for (bin, exe) in bins![
        fig6,
        fig7,
        fig8,
        fig9,
        fig11,
        fig12,
        fig13,
        table1,
        table3,
        models_compare,
        exascale,
        fidelity
    ] {
        assert_rejected(bin, exe, &["--trace-out", "f"], "'--trace-out'");
        assert_rejected(bin, exe, &["1O24"], "'1O24'");
    }
}
