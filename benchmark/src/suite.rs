//! `--suite` / `--smoke`: every workload, both passes, one child process
//! per pass (so `VmHWM`, the global plan cache and the twiddle tables start
//! cold each time), every metric printed by name with its unit, the
//! self-checks applied, and the lot written to `<out>/results-seed<N>.json`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use fftobs::json::Json;

use crate::metrics::{benchmark_json, table, SIM_PHASES};
use crate::util::{cache_sizes, json_num, json_str, nproc, within};
use crate::workloads::{Kind, Workload, WORKLOADS};
use crate::Args;

fn stamp(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Enough to read a number without the machine it came from.
fn env_stamp(seed: u64) -> String {
    let caches: Vec<String> = cache_sizes()
        .iter()
        .map(|(level, kind, bytes)| format!("L{level} {kind} {} KiB", bytes / 1024))
        .collect();
    let dirty = match stamp("git", &["status", "--porcelain"]).as_str() {
        "unknown" => "unknown",
        "" => "clean",
        _ => "dirty",
    };
    format!(
        "{{\"rustc\": {}, \"git_rev\": {}, \"git_tree\": {}, \"nproc\": {}, \"caches\": {}, \
         \"simd_tier\": {}, \"cpu_features\": {}, \"seed\": {seed}}}",
        json_str(&stamp("rustc", &["-V"])),
        json_str(&stamp("git", &["rev-parse", "HEAD"])),
        json_str(dirty),
        nproc(),
        json_str(&caches.join(", ")),
        json_str(fftkern::simd::active_tier().name()),
        json_str(&fftkern::simd::detected_features()),
    )
}

/// Runs one pass in a child and returns the last line of its stdout.
fn run_pass(
    w: &Workload,
    a: &Args,
    out: &PathBuf,
    smoke: bool,
    trace: bool,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &a.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stderr(Stdio::inherit());
    if smoke {
        // The same code paths on a fiftieth of the measuring time.
        cmd.args(["--seconds", &json_num(a.seconds / 50.0)]).args([
            "--cold-starts",
            "3",
            "--quick",
        ]);
    } else {
        cmd.args(["--seconds", &json_num(a.seconds)]);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawning {}: {e}", w.name))?;
    if !output.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}",
            w.name, trace as u8, output.status
        ));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .map(str::to_string)
        .ok_or(format!("{} printed no result", w.name))
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// The self-checks; each returned string is one failure.
fn check(w: &Workload, trace: bool, result: &Json) -> Vec<String> {
    let mut bad = Vec::new();
    let pass = format!("{} (trace {})", w.name, trace as u8);
    if result.get("correct") != Some(&Json::Bool(true)) {
        bad.push(format!("{pass}: not correct"));
    }
    if result.get("failed").and_then(Json::as_f64) != Some(0.0) {
        bad.push(format!("{pass}: failed ops"));
    }
    for (name, _) in table(trace) {
        if metric(result, name).is_none() {
            bad.push(format!("{pass}: metric {name} is missing"));
        }
    }
    if trace {
        let must_be_zero = |name: &str, bad: &mut Vec<String>| {
            if metric(result, name) != Some(0.0) {
                bad.push(format!(
                    "{pass}: {name} = {:?}, must be 0",
                    metric(result, name)
                ));
            }
        };
        // The seven simulated phases must tile sim_op_us (checked in integer
        // nanoseconds by the child; re-checked here on the printed values).
        must_be_zero("bench.sim_tile_gap_ns", &mut bad);
        must_be_zero("bench.bytes_counter_gap_b", &mut bad);
        if w.kind == Kind::C2c {
            must_be_zero("distfft.exec_dryrun_mismatch_ns", &mut bad);
        }
        let phases: f64 = SIM_PHASES.iter().filter_map(|n| metric(result, n)).sum();
        let sim = metric(result, "sim_op_us").unwrap_or(f64::NAN);
        if !within((phases - sim).abs(), sim * 1e-9) {
            bad.push(format!(
                "{pass}: phases sum to {phases} us, sim_op_us is {sim}"
            ));
        }
    }
    bad
}

pub fn run(a: &Args, smoke: bool) -> Result<ExitCode, String> {
    let out = a
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("benchmark/out"));
    let selected: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| a.workload.as_deref().is_none_or(|name| name == w.name))
        .collect();
    if selected.is_empty() {
        return Err("no such workload".into());
    }

    let mut failures = Vec::new();
    if let Ok(committed) = std::fs::read_to_string("BENCHMARK.json") {
        if committed != benchmark_json() {
            failures
                .push("BENCHMARK.json differs from `fftbench --emit-benchmark-json`".to_string());
        }
    }

    let mut listing = String::new();
    let mut runs = Vec::new();
    for w in &selected {
        for trace in [false, true] {
            let line = run_pass(w, a, &out, smoke, trace)?;
            let result = fftobs::json::parse(&line)
                .map_err(|e| format!("{}: unreadable result: {e:?}", w.name))?;
            failures.extend(check(w, trace, &result));
            for (name, unit) in table(trace) {
                let v = metric(&result, name).unwrap_or(f64::NAN);
                let _ = writeln!(listing, "{:<20} {:<38} {:>18.6} {}", w.name, name, v, unit);
            }
            for key in ["attempted", "failed"] {
                let v = result.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
                let _ = writeln!(listing, "{:<20} ops_{:<34} {:>18} count", w.name, key, v);
            }
            runs.push(format!(
                "    {{\"workload\": {}, \"trace\": {}, \"result\": {line}}}",
                json_str(w.name),
                trace as u8
            ));
        }
    }
    print!("{listing}");

    let doc = format!(
        "{{\n  \"benchmark\": \"fftbench\",\n  \"smoke\": {smoke},\n  \"seconds\": {},\n  \
         \"env\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        json_num(if smoke { a.seconds / 50.0 } else { a.seconds }),
        env_stamp(a.seed),
        runs.join(",\n")
    );
    let path = out.join(format!("results-seed{}.json", a.seed));
    std::fs::create_dir_all(&out)
        .and_then(|_| std::fs::write(&path, doc))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("fftbench: wrote {}", path.display());

    for f in &failures {
        eprintln!("fftbench: CHECK FAILED: {f}");
    }
    Ok(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
