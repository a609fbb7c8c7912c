//! The harness's own spans: name, start, end, the span that caused it and
//! the op it belongs to. `fftobs::Span` has no parent field and times in
//! simulated nanoseconds; these are host wall-clock spans recorded around
//! the calls into each layer, kept in memory and written out at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::util::json_str;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// All logs of one process share `epoch` so their spans line up.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: impl Into<String>, parent: Option<usize>, op: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Moves the spans of another log (same epoch) into this one, re-basing
    /// their parent links.
    pub fn absorb(&mut self, other: &mut SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.drain(..).map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span name: calls, total time and self time (the span minus the
    /// part of it its child spans cover), in milliseconds.
    pub fn self_times(&self) -> BTreeMap<String, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e6;
            e.2 += dur.saturating_sub(kids) as f64 / 1e6;
        }
        out
    }

    pub fn layer_table(&self) -> String {
        let mut out = format!(
            "{:<44} {:>8} {:>12} {:>12}\n",
            "span", "calls", "total_ms", "self_ms"
        );
        for (name, (calls, total, own)) in self.self_times() {
            let _ = writeln!(out, "{name:<44} {calls:>8} {total:>12.3} {own:>12.3}");
        }
        out
    }

    /// Chrome-trace ("trace event") JSON; load in `chrome://tracing` or
    /// Perfetto. Parent and op ride along in `args`.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n  {{\"name\":{},\"cat\":\"fftbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                json_str(&s.name),
                s.start_ns / 1000,
                s.start_ns % 1000,
                (s.end_ns - s.start_ns) / 1000,
                (s.end_ns - s.start_ns) % 1000,
                s.op
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}
