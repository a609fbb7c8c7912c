//! Validates observability exports (CI smoke check).
//!
//! Usage:
//! * `trace_check <trace.json>` — a `--trace-out` Chrome-trace export:
//!   valid JSON in the trace-event format with per-rank `pid`/`tid` lanes
//!   and the expected FFT phase names.
//! * `trace_check --profile <profile.json>` — a `--profile-out` fftprof
//!   document: `fftprof-profile-v1` schema, per-rank phase rows that sum
//!   exactly to the makespan, a critical path, a contention account, and
//!   the model-residual block.
//!
//! Exits non-zero with a message on stderr on the first violation.

use fftobs::json::{self, Json};

fn fail(msg: &str) -> ! {
    eprintln!("trace_check: {msg}");
    std::process::exit(1);
}

fn check_trace(path: &str, doc: &Json) {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .unwrap_or_else(|| fail("missing traceEvents array"));

    let mut phase_names = std::collections::BTreeSet::new();
    let mut pids = std::collections::BTreeSet::new();
    let mut n_complete = 0usize;
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).unwrap_or_default();
        if ph != "X" {
            continue;
        }
        n_complete += 1;
        for field in ["name", "pid", "tid", "ts", "dur"] {
            if e.get(field).is_none() {
                fail(&format!("complete event missing field '{field}'"));
            }
        }
        let pid = e.get("pid").and_then(Json::as_f64).unwrap_or(-1.0);
        if pid < 0.0 {
            fail("complete event has a non-numeric pid");
        }
        pids.insert(pid as i64);
        phase_names.insert(e.get("name").and_then(Json::as_str).unwrap().to_string());
    }
    if n_complete == 0 {
        fail("no complete ('X') events in trace");
    }
    if pids.len() < 2 {
        fail(&format!("expected multiple ranks (pids), found {pids:?}"));
    }
    for want in ["FFT", "pack", "unpack"] {
        if !phase_names.contains(want) {
            fail(&format!(
                "missing expected phase '{want}'; found {phase_names:?}"
            ));
        }
    }
    if !phase_names.iter().any(|n| n.starts_with("MPI_")) {
        fail(&format!("no MPI_* phase in trace; found {phase_names:?}"));
    }
    let _ = path;
    println!(
        "ok: {} events, {} ranks, phases: {}",
        n_complete,
        pids.len(),
        phase_names.into_iter().collect::<Vec<_>>().join(", ")
    );
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| fail(&format!("missing numeric field '{key}'")))
}

fn check_profile(doc: &Json) {
    if doc.get("schema").and_then(Json::as_str) != Some("fftprof-profile-v1") {
        fail("not an fftprof-profile-v1 document");
    }
    let makespan = num(doc, "makespan_ns");
    let nranks = num(doc, "nranks") as usize;

    // Per-rank phase rows must tile the makespan exactly.
    let phases = doc
        .get("phases")
        .and_then(Json::as_array)
        .unwrap_or_else(|| fail("missing phases array"));
    if phases.len() != nranks {
        fail(&format!(
            "phases has {} rows for {nranks} ranks",
            phases.len()
        ));
    }
    let labels = [
        "compute",
        "pack",
        "unpack",
        "self-copy",
        "send",
        "recv-wait",
        "idle",
    ];
    for row in phases {
        let rank = num(row, "rank") as usize;
        let sum: f64 = labels.iter().map(|l| num(row, l)).sum();
        if sum != makespan {
            fail(&format!(
                "rank {rank} phases sum to {sum}, expected makespan {makespan}"
            ));
        }
        if num(row, "total_ns") != makespan {
            fail(&format!("rank {rank} total_ns disagrees with makespan"));
        }
    }

    // The critical path must exist and fit in the window.
    let cp = doc
        .get("critical_path")
        .unwrap_or_else(|| fail("missing critical_path block"));
    let busy = num(cp, "busy_ns");
    let idle = num(cp, "idle_ns");
    if busy <= 0.0 {
        fail("critical path has no busy time");
    }
    if busy + idle > makespan {
        fail(&format!(
            "critical path ({}) exceeds makespan ({makespan})",
            busy + idle
        ));
    }
    if cp.get("segments").and_then(Json::as_array).is_none() {
        fail("critical_path.segments missing");
    }

    // Contention and model blocks must be present and well-formed.
    let cont = doc
        .get("contention")
        .unwrap_or_else(|| fail("missing contention block"));
    let by_reshape = cont
        .get("by_reshape")
        .and_then(Json::as_array)
        .unwrap_or_else(|| fail("contention.by_reshape missing"));
    for c in by_reshape {
        let actual = num(c, "actual_ns");
        let ideal = num(c, "ideal_ns");
        let queue = num(c, "queue_ns");
        if actual != ideal + queue {
            fail(&format!(
                "contention row inconsistent: actual {actual} != ideal {ideal} + queue {queue}"
            ));
        }
    }
    let model = doc
        .get("model")
        .unwrap_or_else(|| fail("missing model block"));
    let predicted = num(model, "predicted_comm_ns");
    let measured = num(model, "measured_comm_ns");
    if num(model, "residual_ns") != measured - predicted {
        fail("model residual_ns disagrees with measured - predicted");
    }

    println!(
        "ok: profile of {nranks} ranks, makespan {makespan} ns, critical path busy {busy} ns \
         ({} contention rows)",
        by_reshape.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (profile, path) = match args.as_slice() {
        [p] => (false, p.clone()),
        [flag, p] if flag == "--profile" => (true, p.clone()),
        _ => fail("usage: trace_check [--profile] <file.json>"),
    };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let doc =
        json::parse(&text).unwrap_or_else(|e| fail(&format!("{path} is not valid JSON: {e}")));
    if profile {
        check_profile(&doc)
    } else {
        check_trace(&path, &doc)
    }
}
