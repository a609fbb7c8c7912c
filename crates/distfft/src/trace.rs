//! Execution traces: per-call and per-kernel event records.
//!
//! The paper's per-call figures (Figs. 2, 3, 10) and runtime breakdowns
//! (Figs. 6, 7, 12) are regenerated from these traces.

use simgrid::SimTime;
use std::collections::BTreeMap;

/// Category of a local kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelKind {
    /// Batched 1-D FFT pass along `axis`, contiguous or strided input.
    Fft1d {
        /// Transform axis (0..3).
        axis: usize,
        /// Whether the kernel read unit-stride data.
        contiguous: bool,
    },
    /// Packing scattered box data into send buffers.
    Pack,
    /// Unpacking receive buffers into the local array.
    Unpack,
    /// The on-rank self block copy of a reshape.
    SelfCopy,
    /// Element-wise spectral kernel (scaling, Green's function, masks).
    Pointwise,
}

impl KernelKind {
    /// Breakdown label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            KernelKind::Fft1d { .. } => "FFT",
            KernelKind::Pack => "pack",
            KernelKind::Unpack => "unpack",
            KernelKind::SelfCopy => "self-copy",
            KernelKind::Pointwise => "pointwise",
        }
    }
}

/// One recorded event on one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// An MPI exchange call (one reshape on one backend).
    MpiCall {
        /// Reshape index within the plan.
        reshape: usize,
        /// Routine name as the paper labels it ("MPI_Alltoallv", …).
        routine: &'static str,
        /// Entry time on this rank.
        start: SimTime,
        /// Exit − entry on this rank.
        dur: SimTime,
        /// Off-rank payload this rank sent in the call.
        bytes: usize,
    },
    /// A local kernel execution.
    Kernel {
        /// Kernel category.
        kind: KernelKind,
        /// Launch time.
        start: SimTime,
        /// Modeled duration.
        dur: SimTime,
    },
}

/// An append-only per-rank event log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Events in execution order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Records an event.
    ///
    /// Both executors (functional [`crate::exec`] and analytic
    /// [`crate::dryrun`]) funnel every event through here, so this is the
    /// single instrumentation point for phase counters and span-duration
    /// histograms. Metrics never feed back into simulated time.
    pub fn push(&mut self, e: TraceEvent) {
        if fftobs::enabled() {
            match &e {
                TraceEvent::MpiCall { dur, bytes, .. } => {
                    fftobs::count("distfft.events.mpi", 1);
                    fftobs::count("distfft.bytes.mpi_sent", *bytes as u64);
                    fftobs::observe("distfft.span.mpi_ns", dur.as_ns());
                }
                TraceEvent::Kernel { kind, dur, .. } => {
                    let (cnt, hist) = match kind {
                        KernelKind::Fft1d { .. } => ("distfft.events.fft", "distfft.span.fft_ns"),
                        KernelKind::Pack => ("distfft.events.pack", "distfft.span.pack_ns"),
                        KernelKind::Unpack => ("distfft.events.unpack", "distfft.span.unpack_ns"),
                        KernelKind::SelfCopy => {
                            ("distfft.events.self_copy", "distfft.span.self_copy_ns")
                        }
                        KernelKind::Pointwise => {
                            ("distfft.events.pointwise", "distfft.span.pointwise_ns")
                        }
                    };
                    fftobs::count(cnt, 1);
                    fftobs::observe(hist, dur.as_ns());
                }
            }
        }
        self.events.push(e);
    }

    /// All MPI call durations, in call order.
    pub fn mpi_call_durations(&self) -> Vec<SimTime> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::MpiCall { dur, .. } => Some(*dur),
                _ => None,
            })
            .collect()
    }

    /// Sum of all MPI call durations (the "communication cost").
    pub fn comm_total(&self) -> SimTime {
        self.mpi_call_durations().into_iter().sum()
    }

    /// Kernel-time totals by breakdown label (the Figs. 6/7 stacked bars).
    pub fn kernel_breakdown(&self) -> BTreeMap<&'static str, SimTime> {
        let mut m: BTreeMap<&'static str, SimTime> = BTreeMap::new();
        for e in &self.events {
            if let TraceEvent::Kernel { kind, dur, .. } = e {
                *m.entry(kind.label()).or_insert(SimTime::ZERO) += *dur;
            }
        }
        m
    }

    /// Durations of the FFT kernel calls only, in call order (Fig. 10).
    pub fn fft_call_durations(&self) -> Vec<SimTime> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Kernel {
                    kind: KernelKind::Fft1d { .. },
                    dur,
                    ..
                } => Some(*dur),
                _ => None,
            })
            .collect()
    }

    /// Lowers this rank's events into export spans: local kernels on the
    /// GPU lane (`tid` [`LANE_GPU`]), MPI calls on the network lane
    /// (`tid` [`LANE_NET`]). `rank` becomes the Chrome-trace `pid`.
    pub fn to_spans(&self, rank: u32) -> Vec<fftobs::Span> {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::MpiCall {
                    routine,
                    start,
                    dur,
                    ..
                } => fftobs::Span {
                    name: routine,
                    cat: "comm",
                    pid: rank,
                    tid: LANE_NET,
                    start_ns: start.as_ns(),
                    dur_ns: dur.as_ns(),
                },
                TraceEvent::Kernel { kind, start, dur } => fftobs::Span {
                    name: kind.label(),
                    cat: "kernel",
                    pid: rank,
                    tid: LANE_GPU,
                    start_ns: start.as_ns(),
                    dur_ns: dur.as_ns(),
                },
            })
            .collect()
    }

    /// Merges per-rank traces into the per-call *maximum* duration across
    /// ranks — what a wall-clock measurement of a collective reports.
    pub fn max_mpi_calls(traces: &[Trace]) -> Vec<SimTime> {
        let calls = traces
            .iter()
            .map(|t| t.mpi_call_durations())
            .collect::<Vec<_>>();
        let ncalls = calls.iter().map(|c| c.len()).max().unwrap_or(0);
        (0..ncalls)
            .map(|i| {
                calls
                    .iter()
                    .filter_map(|c| c.get(i).copied())
                    .fold(SimTime::ZERO, SimTime::max)
            })
            .collect()
    }
}

/// Chrome-trace thread id of the GPU (local kernel) lane.
pub const LANE_GPU: u32 = 0;
/// Chrome-trace thread id of the network (MPI) lane.
pub const LANE_NET: u32 = 1;

/// The named `tid` lanes of an exported timeline.
pub const LANES: [(u32, &str); 2] = [(LANE_GPU, "gpu"), (LANE_NET, "net")];

/// Renders per-rank traces as a Chrome-trace JSON document (one `pid` per
/// rank, `gpu`/`net` lanes per rank). Load in `chrome://tracing` or
/// <https://ui.perfetto.dev>.
pub fn export_chrome_trace(traces: &[Trace]) -> String {
    let spans: Vec<fftobs::Span> = traces
        .iter()
        .enumerate()
        .flat_map(|(r, t)| t.to_spans(r as u32))
        .collect();
    fftobs::chrome_trace_json(&spans, &LANES)
}

/// Renders the per-phase summary table (calls, total/mean/max duration,
/// share of summed span time) over all ranks.
pub fn phase_summary(traces: &[Trace]) -> String {
    let spans: Vec<fftobs::Span> = traces
        .iter()
        .enumerate()
        .flat_map(|(r, t)| t.to_spans(r as u32))
        .collect();
    fftobs::span_summary(&spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(dur_ns: u64) -> TraceEvent {
        TraceEvent::MpiCall {
            reshape: 0,
            routine: "MPI_Alltoallv",
            start: SimTime::ZERO,
            dur: SimTime::from_ns(dur_ns),
            bytes: 100,
        }
    }

    fn kern(kind: KernelKind, dur_ns: u64) -> TraceEvent {
        TraceEvent::Kernel {
            kind,
            start: SimTime::ZERO,
            dur: SimTime::from_ns(dur_ns),
        }
    }

    #[test]
    fn totals_and_breakdown() {
        let mut t = Trace::new();
        t.push(call(100));
        t.push(kern(KernelKind::Pack, 10));
        t.push(call(200));
        t.push(kern(
            KernelKind::Fft1d {
                axis: 2,
                contiguous: true,
            },
            50,
        ));
        t.push(kern(KernelKind::Unpack, 15));
        assert_eq!(t.comm_total().as_ns(), 300);
        let b = t.kernel_breakdown();
        assert_eq!(b["pack"].as_ns(), 10);
        assert_eq!(b["unpack"].as_ns(), 15);
        assert_eq!(b["FFT"].as_ns(), 50);
        assert_eq!(t.fft_call_durations(), vec![SimTime::from_ns(50)]);
        assert_eq!(t.mpi_call_durations().len(), 2);
    }

    #[test]
    fn spans_use_rank_as_pid_and_resource_as_tid() {
        let mut t = Trace::new();
        t.push(kern(KernelKind::Pack, 10));
        t.push(call(100));
        let spans = t.to_spans(3);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "pack");
        assert_eq!(spans[0].pid, 3);
        assert_eq!(spans[0].tid, LANE_GPU);
        assert_eq!(spans[1].name, "MPI_Alltoallv");
        assert_eq!(spans[1].tid, LANE_NET);
        assert_eq!(spans[1].dur_ns, 100);
    }

    #[test]
    fn chrome_export_roundtrips_through_the_json_reader() {
        let mut a = Trace::new();
        a.push(kern(KernelKind::Pack, 10));
        a.push(call(100));
        let mut b = Trace::new();
        b.push(kern(
            KernelKind::Fft1d {
                axis: 0,
                contiguous: true,
            },
            50,
        ));
        let text = export_chrome_trace(&[a, b]);
        let doc = fftobs::json::parse(&text).expect("export must be valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 3);
        let pids: std::collections::BTreeSet<i64> = xs
            .iter()
            .filter_map(|e| e.get("pid").and_then(|p| p.as_f64()))
            .map(|p| p as i64)
            .collect();
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![0, 1]);
        let summary = phase_summary(&{
            let mut t = Trace::new();
            t.push(kern(KernelKind::Unpack, 30));
            vec![t]
        });
        assert!(summary.contains("unpack"), "{summary}");
    }

    #[test]
    fn max_across_ranks() {
        let mut a = Trace::new();
        a.push(call(100));
        a.push(call(300));
        let mut b = Trace::new();
        b.push(call(150));
        b.push(call(250));
        let m = Trace::max_mpi_calls(&[a, b]);
        assert_eq!(m, vec![SimTime::from_ns(150), SimTime::from_ns(300)]);
    }
}
