//! Span timelines and their export formats.
//!
//! A [`Span`] is one named interval on one rank's timeline (simulated time,
//! nanoseconds). The `distfft` trace layer lowers its per-rank event logs
//! into spans; this module turns a span set into
//!
//! * **Chrome-trace JSON** ([`chrome_trace_json`]) — the
//!   `chrome://tracing` / Perfetto "trace event" format: one complete
//!   (`"ph": "X"`) event per span with the rank as `pid` and the resource
//!   (GPU stream vs network) as `tid`, plus metadata events naming both;
//! * **a plain-text summary table** ([`span_summary`]) — per span name:
//!   call count, total/mean/max duration and share of the summed time.
//!
//! Both renderings are pure functions of the span list, so a deterministic
//! simulation exports byte-identical artifacts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::escape;

/// One interval on one rank's timeline. Times are simulated nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Event name (e.g. `"MPI_Alltoallv"`, `"FFT"`, `"pack"`).
    pub name: &'static str,
    /// Category (e.g. `"comm"`, `"kernel"`).
    pub cat: &'static str,
    /// Process id in the export — the MPI rank.
    pub pid: u32,
    /// Thread id in the export — the rank-local resource lane.
    pub tid: u32,
    /// Start time in simulated nanoseconds.
    pub start_ns: u64,
    /// Duration in simulated nanoseconds.
    pub dur_ns: u64,
}

/// Formats nanoseconds as the microsecond float Chrome-trace expects,
/// without going through `f64` (exact for the full `u64` range).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders spans as a Chrome-trace JSON document.
///
/// `lanes` names the `tid` values (e.g. `[(0, "gpu"), (1, "net")]`); a
/// `thread_name` metadata event is emitted for every named lane of every
/// rank that appears in `spans`, and a `process_name` event (`"rank N"`)
/// for every rank. Load the result in `chrome://tracing` or
/// <https://ui.perfetto.dev>.
pub fn chrome_trace_json(spans: &[Span], lanes: &[(u32, &str)]) -> String {
    let mut pids: Vec<u32> = spans.iter().map(|s| s.pid).collect();
    pids.sort_unstable();
    pids.dedup();

    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str("\n  ");
    };
    for &pid in &pids {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"rank {pid}\"}}}}"
        );
        for &(tid, lane) in lanes {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\""
            );
            out.push_str(&escape(lane));
            out.push_str("\"}}");
        }
    }
    for s in spans {
        sep(&mut out, &mut first);
        out.push_str("{\"name\":\"");
        out.push_str(&escape(s.name));
        out.push_str("\",\"cat\":\"");
        out.push_str(&escape(s.cat));
        let _ = write!(
            out,
            "\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{}}}",
            s.pid,
            s.tid,
            us(s.start_ns),
            us(s.dur_ns)
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

/// Per-name aggregate over a span set.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NameStats {
    cat: &'static str,
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

/// Renders the plain-text summary table: one row per span name with call
/// count, total / mean / max duration (ms / µs) and share of the summed
/// span time across all ranks.
pub fn span_summary(spans: &[Span]) -> String {
    if spans.is_empty() {
        return String::from("(no spans)\n");
    }
    let mut by_name: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_insert(NameStats {
            cat: s.cat,
            count: 0,
            total_ns: 0,
            max_ns: 0,
        });
        e.count += 1;
        e.total_ns += s.dur_ns;
        e.max_ns = e.max_ns.max(s.dur_ns);
    }
    let grand: u64 = by_name.values().map(|e| e.total_ns).sum();
    let name_w = by_name.keys().map(|n| n.len()).max().unwrap_or(4).max(4);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>8}  {:>6}  {:>12}  {:>10}  {:>10}  {:>6}",
        "span", "cat", "calls", "total (ms)", "mean (us)", "max (us)", "share"
    );
    for (name, e) in &by_name {
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>8}  {:>6}  {:>12.3}  {:>10.2}  {:>10.2}  {:>5.1}%",
            name,
            e.cat,
            e.count,
            e.total_ns as f64 / 1e6,
            e.total_ns as f64 / e.count as f64 / 1e3,
            e.max_ns as f64 / 1e3,
            if grand == 0 {
                0.0
            } else {
                100.0 * e.total_ns as f64 / grand as f64
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn spans() -> Vec<Span> {
        vec![
            Span {
                name: "FFT",
                cat: "kernel",
                pid: 0,
                tid: 0,
                start_ns: 0,
                dur_ns: 1_500,
            },
            Span {
                name: "MPI_Alltoallv",
                cat: "comm",
                pid: 0,
                tid: 1,
                start_ns: 1_500,
                dur_ns: 2_500,
            },
            Span {
                name: "FFT",
                cat: "kernel",
                pid: 1,
                tid: 0,
                start_ns: 10,
                dur_ns: 500,
            },
        ]
    }

    #[test]
    fn us_formatting_is_exact() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(1), "0.001");
        assert_eq!(us(1_500), "1.500");
        assert_eq!(us(12_345_678), "12345.678");
    }

    #[test]
    fn chrome_trace_parses_and_carries_all_events() {
        let text = chrome_trace_json(&spans(), &[(0, "gpu"), (1, "net")]);
        let doc = json::parse(&text).expect("export must be valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 3);
        // Metadata names both ranks and both lanes.
        let metas: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .collect();
        assert_eq!(metas.len(), 2 + 2 * 2);
        // Fields of one complete event.
        let first = xs[0];
        assert_eq!(first.get("name").and_then(|v| v.as_str()), Some("FFT"));
        assert_eq!(first.get("pid").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(first.get("dur").and_then(|v| v.as_f64()), Some(1.5));
    }

    #[test]
    fn summary_totals_and_shares() {
        let s = span_summary(&spans());
        // FFT: 2 calls, 2000 ns total; MPI: 1 call, 2500 ns.
        assert!(s.contains("FFT"), "{s}");
        assert!(s.contains("MPI_Alltoallv"), "{s}");
        assert!(s.contains("44.4%"), "{s}"); // 2000 / 4500
        assert!(s.contains("55.6%"), "{s}"); // 2500 / 4500
        assert_eq!(span_summary(&[]), "(no spans)\n");
    }

    #[test]
    fn escaping_never_breaks_the_json() {
        let s = [Span {
            name: "weird\"name\\with\u{1}ctl",
            cat: "k",
            pid: 0,
            tid: 0,
            start_ns: 0,
            dur_ns: 1,
        }];
        let text = chrome_trace_json(&s, &[]);
        let doc = json::parse(&text).expect("escaped export must parse");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let x = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .unwrap();
        assert_eq!(
            x.get("name").and_then(|v| v.as_str()),
            Some("weird\"name\\with\u{1}ctl")
        );
    }
}
