//! The `dryrun-512x192` workload: the second clock. One op prices the
//! paper's measurement protocol (`timed_average(2, 4)`) on a fresh
//! `DryRunner` for each of the eight plans; nothing numeric runs.

use std::time::Instant;

use distfft::dryrun::DryRunner;
use distfft::plan::FftPlan;

use crate::functional::{LoopOutcome, Segment, SegmentStats};
use crate::spans::SpanLog;
use crate::util::freq_probe_us;
use crate::workloads::{dryrun_opts, machine, DRYRUN_CONFIGS};

/// The eight simulated protocol averages of one op, ns.
pub fn one_op(plans: &[FftPlan], spans: Option<(&mut SpanLog, usize, u64)>) -> Vec<u64> {
    let machine = machine();
    let mut spans = spans;
    plans
        .iter()
        .zip(DRYRUN_CONFIGS)
        .map(|(plan, (backend, k))| {
            let id = spans.as_mut().map(|(log, parent, op)| {
                log.begin(
                    format!("timed_average[{backend:?},k={k}]"),
                    Some(*parent),
                    *op,
                )
            });
            let mut runner = DryRunner::new(plan, &machine, dryrun_opts());
            let avg = std::hint::black_box(runner.timed_average(2, 4)).as_ns();
            if let (Some((log, _, _)), Some(id)) = (spans.as_mut(), id) {
                log.end(id);
            }
            avg
        })
        .collect()
}

/// The same segment protocol as the functional loop, on the driver thread.
/// Returns the outcome (no ranks), the ops attempted and the ops whose
/// eight averages differ from the first op's or hold a zero.
pub fn run_loop(
    plans: &[FftPlan],
    segments: &[Segment],
    epoch: Instant,
) -> (LoopOutcome, u64, u64) {
    let mut out = LoopOutcome {
        ranks: Vec::new(),
        segments: Vec::new(),
        spans: SpanLog::new(epoch),
        counters: fftobs::MetricsSnapshot::default(),
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reference: Vec<u64> = Vec::new();
    for seg in segments {
        fftobs::set_enabled(seg.traced);
        if seg.traced {
            fftobs::registry().reset();
        }
        let mut stats = SegmentStats::default();
        let seg_start = Instant::now();
        let mut done = 0u64;
        while done < seg.min_ops || seg_start.elapsed().as_secs_f64() < seg.seconds {
            if seg.seconds > 0.0 {
                stats.probe_us.push(freq_probe_us());
            }
            let op_span = seg.traced.then(|| out.spans.begin("op", None, attempted));
            let t0 = Instant::now();
            let avgs = one_op(plans, op_span.map(|id| (&mut out.spans, id, attempted)));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if let Some(id) = op_span {
                out.spans.end(id);
            }
            if reference.is_empty() {
                reference = avgs.clone();
            }
            if avgs != reference || avgs.contains(&0) {
                failed += 1;
            }
            if seg.seconds > 0.0 {
                stats.op_ms.push(ms);
                stats.done_s.push(seg_start.elapsed().as_secs_f64());
            }
            attempted += 1;
            done += 1;
        }
        if seg.traced {
            out.counters = fftobs::registry().snapshot();
            fftobs::set_enabled(false);
        }
        out.segments.push(stats);
    }
    (out, attempted, failed)
}
