//! ASCII timeline rendering of execution traces.
//!
//! Turns per-rank [`Trace`]s into a Gantt-style chart — the visual the
//! paper's breakdown figures summarize — so plan behaviour (overlap, waits,
//! stragglers, padding blowups) can be inspected straight from a terminal:
//!
//! ```text
//! rank 0 |PPP#####++++UU~FFF~PPP#####UU.....|
//! rank 1 |PP####+++##UUU~FF~PP######UUU.....|
//!         '#' MPI  'F' FFT  'P' pack  'U' unpack  'S' self-copy  '+' overlap  '~' stall  '.' idle
//! ```
//!
//! Two kinds of empty time are distinguished: `~` marks a **stall** — a
//! gap *between* a rank's events, where the rank has started working but
//! is blocked (waiting on a peer, a link, or a dependency) — while `.`
//! marks **idle** margins before a rank's first event or after its last
//! (the rank simply isn't participating yet / any more).
//!
//! Pipelined reshapes (DESIGN.md §14) emit *overlapping* spans on one
//! rank: a chunk's MPI call is still in flight while the next chunk's
//! pack or an earlier chunk's unpack runs on the GPU — and under
//! transform-ahead (DESIGN.md §14) even the *next axis'* butterflies run
//! beneath the wire as completed lines arrive chunk by chunk. A cell
//! covered by both a kernel span and an MPI span renders as `+` rather
//! than letting one lane silently swallow the other; events may also
//! arrive in the trace out of timestamp order (chunk completions
//! interleave), which the column sweep tolerates by construction.

use simgrid::SimTime;

use crate::trace::{KernelKind, Trace, TraceEvent};

/// Glyph for each event category.
fn glyph(e: &TraceEvent) -> char {
    match e {
        TraceEvent::MpiCall { .. } => '#',
        TraceEvent::Kernel { kind, .. } => match kind {
            KernelKind::Fft1d { .. } => 'F',
            KernelKind::Pack => 'P',
            KernelKind::Unpack => 'U',
            KernelKind::SelfCopy => 'S',
            KernelKind::Pointwise => '*',
        },
    }
}

fn span(e: &TraceEvent) -> (SimTime, SimTime) {
    match e {
        TraceEvent::MpiCall { start, dur, .. } | TraceEvent::Kernel { start, dur, .. } => {
            (*start, *start + *dur)
        }
    }
}

/// Renders per-rank traces into a fixed-width timeline.
///
/// Each row is one rank; each column is a `(t_max - t_min)/width` slice of
/// simulated time. Kernel and MPI lanes are swept separately: within a
/// lane the event covering the most of a slice wins, and a slice covered
/// by *both* lanes renders as `+` (the pipelined-reshape overlap). Gaps
/// between a rank's events render as `~` (stall); time outside the rank's
/// own first/last event renders as `.` (idle).
#[expect(
    clippy::indexing_slicing,
    reason = "`c` stays below `width`, the length of `base`, `kern` and `comm`"
)]
pub fn render(traces: &[Trace], width: usize) -> String {
    assert!(width > 0, "timeline width must be positive");
    let mut t_min = SimTime(u64::MAX);
    let mut t_max = SimTime::ZERO;
    let mut have_events = false;
    for t in traces {
        for e in &t.events {
            have_events = true;
            let (s, f) = span(e);
            t_min = t_min.min(s);
            t_max = t_max.max(f);
        }
    }
    if !have_events {
        return String::from("(empty trace)\n");
    }
    // A degenerate trace (every event instantaneous at the same t) spans
    // zero time; clamp the slice width so the axis math never divides by
    // zero and the rows still render.
    let total = ((t_max - t_min).as_ns() as f64).max(1.0);
    let slice_ns = total / width as f64;

    let mut out = String::new();
    for (r, trace) in traces.iter().enumerate() {
        // This rank's own active extent decides stall (`~`, between its
        // events) vs idle (`.`, before its first / after its last event).
        let mut r_lo = SimTime(u64::MAX);
        let mut r_hi = SimTime::ZERO;
        for e in &trace.events {
            let (s, f) = span(e);
            r_lo = r_lo.min(s);
            r_hi = r_hi.max(f);
        }
        // Backgrounds (stall/idle, possibly a zero-duration mark) plus the
        // two event lanes, swept independently so concurrent kernel and
        // MPI spans — the pipelined-reshape overlap — are both visible.
        let mut base: Vec<char> = (0..width)
            .map(|c| {
                if trace.events.is_empty() {
                    '.'
                } else {
                    let mid = t_min + SimTime(((c as f64 + 0.5) * slice_ns) as u64);
                    if r_lo <= mid && mid < r_hi {
                        '~'
                    } else {
                        '.'
                    }
                }
            })
            .collect();
        let mut kern: Vec<(f64, char)> = vec![(0.0, ' '); width];
        let mut comm: Vec<(f64, char)> = vec![(0.0, ' '); width];
        for e in &trace.events {
            let (s, f) = span(e);
            let g = glyph(e);
            let s_rel = (s - t_min).as_ns() as f64;
            if f <= s {
                // Zero-duration event: mark its instant with one glyph
                // cell, without outranking any event of real extent.
                let c = ((s_rel / slice_ns).floor() as usize).min(width - 1);
                if matches!(base[c], '.' | '~') {
                    base[c] = g;
                }
                continue;
            }
            let lane = if matches!(e, TraceEvent::MpiCall { .. }) {
                &mut comm
            } else {
                &mut kern
            };
            let f_rel = (f - t_min).as_ns() as f64;
            let first = (s_rel / slice_ns).floor() as usize;
            let last = ((f_rel / slice_ns).ceil() as usize).min(width);
            for (c, slot) in lane.iter_mut().enumerate().take(last).skip(first) {
                let c_lo = c as f64 * slice_ns;
                let c_hi = c_lo + slice_ns;
                let overlap = (f_rel.min(c_hi) - s_rel.max(c_lo)).max(0.0);
                if overlap > slot.0 {
                    *slot = (overlap, g);
                }
            }
        }
        out.push_str(&format!("rank {r:>3} |"));
        for c in 0..width {
            let g = match (kern[c].0 > 0.0, comm[c].0 > 0.0) {
                (true, true) => '+',
                (true, false) => kern[c].1,
                (false, true) => comm[c].1,
                (false, false) => base[c],
            };
            out.push(g);
        }
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "          0 {:>width$}\n",
        format!("{}", t_max - t_min),
        width = width.saturating_sub(1)
    ));
    out.push_str("          '#' MPI  'F' FFT  'P' pack  'U' unpack  'S' self-copy  '*' pointwise  '+' comm+kernel overlap  '~' stall  '.' idle\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mpi(start: u64, dur: u64) -> TraceEvent {
        TraceEvent::MpiCall {
            reshape: 0,
            routine: "MPI_Alltoallv",
            start: SimTime::from_ns(start),
            dur: SimTime::from_ns(dur),
            bytes: 0,
        }
    }

    fn fft(start: u64, dur: u64) -> TraceEvent {
        TraceEvent::Kernel {
            kind: KernelKind::Fft1d {
                axis: 0,
                contiguous: true,
            },
            start: SimTime::from_ns(start),
            dur: SimTime::from_ns(dur),
        }
    }

    #[test]
    fn renders_phases_in_order() {
        let mut t = Trace::new();
        t.push(fft(0, 500));
        t.push(mpi(500, 500));
        let s = render(&[t], 10);
        let row = s.lines().next().unwrap();
        // First half FFT, second half MPI.
        assert!(row.contains("FFFFF#####"), "row was: {row}");
    }

    #[test]
    fn gaps_between_events_render_as_stalls() {
        let mut t = Trace::new();
        t.push(fft(0, 100));
        t.push(mpi(900, 100));
        let s = render(&[t], 10);
        let row = s.lines().next().unwrap();
        // The 800 ns between the rank's own events is a stall, not idle.
        assert!(row.starts_with("rank   0 |F"));
        assert!(row.ends_with("#|"));
        assert!(row.contains("~~~"), "expected stall glyphs in {row}");
        assert!(!row.contains('.'), "no idle margins in {row}");
    }

    #[test]
    fn known_gap_splits_into_stall_and_idle_margins() {
        // Rank 0: busy [0,200), stalled [200,600), busy [600,800), then done
        // — while rank 1 stretches the shared axis to 1000. With width 10
        // (100 ns per cell) rank 0's row is exactly 2×F, 4×~, 2×#, 2×'.'.
        let mut a = Trace::new();
        a.push(fft(0, 200));
        a.push(mpi(600, 200));
        let mut b = Trace::new();
        b.push(fft(0, 1000));
        let s = render(&[a, b.clone()], 10);
        let rows: Vec<&str> = s.lines().collect();
        assert!(rows[0].contains("FF~~~~##.."), "{}", rows[0]);
        assert!(rows[1].contains("FFFFFFFFFF"), "{}", rows[1]);
        // A rank with no events at all stays fully idle, never stalled.
        let s = render(&[Trace::new(), b], 10);
        let rows: Vec<&str> = s.lines().collect();
        assert!(rows[0].contains(".........."), "{}", rows[0]);
        assert!(s.contains("'~' stall"), "legend must explain the glyph");
    }

    #[test]
    fn multiple_ranks_share_the_time_axis() {
        let mut a = Trace::new();
        a.push(fft(0, 1000));
        let mut b = Trace::new();
        b.push(mpi(0, 2000));
        let s = render(&[a, b], 8);
        let rows: Vec<&str> = s.lines().collect();
        // Rank 0 is busy only for the first half of the shared axis.
        assert!(rows[0].contains("FFFF...."), "{}", rows[0]);
        assert!(rows[1].contains("########"), "{}", rows[1]);
    }

    #[test]
    fn empty_trace_is_graceful() {
        assert_eq!(render(&[Trace::new()], 20), "(empty trace)\n");
        assert_eq!(render(&[], 20), "(empty trace)\n");
    }

    #[test]
    fn single_zero_duration_event_renders_a_row() {
        // One instantaneous event used to collapse the axis to zero span
        // and be reported as "(empty trace)"; it must render as a row with
        // its glyph marked.
        let mut t = Trace::new();
        t.push(fft(5, 0));
        let s = render(&[t], 10);
        let row = s.lines().next().unwrap();
        assert!(row.starts_with("rank   0 |"), "row was: {row}");
        assert_eq!(row.matches('F').count(), 1, "row was: {row}");
    }

    #[test]
    fn all_events_at_t0_render_without_divide_by_zero() {
        let mut a = Trace::new();
        a.push(fft(0, 0));
        a.push(mpi(0, 0));
        let mut b = Trace::new();
        b.push(mpi(0, 0));
        let s = render(&[a, b], 16);
        let rows: Vec<&str> = s.lines().collect();
        assert!(rows[0].starts_with("rank   0 |"));
        assert!(rows[1].starts_with("rank   1 |"));
        // First zero-duration event at the instant wins the cell.
        assert!(rows[0].contains('F'), "{}", rows[0]);
        assert!(rows[1].contains('#'), "{}", rows[1]);
        // No NaN/inf artifacts leak into the axis label.
        assert!(!s.contains("NaN") && !s.contains("inf"), "{s}");
    }

    #[test]
    fn zero_duration_marks_do_not_outrank_real_events() {
        let mut t = Trace::new();
        t.push(mpi(0, 1000));
        t.push(fft(500, 0));
        let s = render(&[t], 4);
        let row = s.lines().next().unwrap();
        assert!(
            row.contains("####"),
            "real event must keep its cells: {row}"
        );
    }

    fn unpack(start: u64, dur: u64) -> TraceEvent {
        TraceEvent::Kernel {
            kind: KernelKind::Unpack,
            start: SimTime::from_ns(start),
            dur: SimTime::from_ns(dur),
        }
    }

    #[test]
    fn overlapping_send_and_unpack_render_the_overlap_glyph() {
        // A pipelined reshape: chunk 1's MPI call [0,1000) is still in
        // flight while chunk 0's unpack [400,800) runs. The overlapped
        // cells must show '+', with pure-MPI cells keeping '#' — neither
        // lane may swallow the other.
        let mut t = Trace::new();
        t.push(mpi(0, 1000));
        t.push(unpack(400, 400));
        let s = render(&[t], 10);
        let row = s.lines().next().unwrap();
        assert!(row.contains("####++++##"), "row was: {row}");
        assert!(s.contains("'+' comm+kernel overlap"), "legend: {s}");
    }

    #[test]
    fn transform_ahead_butterflies_under_wire_render_overlap() {
        // Transform-ahead: the next axis' Fft1d runs on lines whose chunks
        // have already landed while the tail chunks' MPI call is still in
        // flight. The butterfly-under-wire cells must render '+', and the
        // post-exchange FFT cells keep 'F'.
        let mut t = Trace::new();
        t.push(mpi(0, 600));
        t.push(fft(300, 500));
        let s = render(&[t], 10);
        let row = s.lines().next().unwrap();
        assert!(row.contains("###+++++FF"), "row was: {row}");
    }

    #[test]
    fn interleaved_chunk_events_keep_both_lanes_visible() {
        // Two chunked MPI calls with a pack and an unpack interleaved, all
        // overlapping somewhere. Every glyph class must survive the sweep.
        let mut t = Trace::new();
        t.push(mpi(0, 400));
        t.push(mpi(200, 600));
        t.push(fft(0, 100));
        t.push(unpack(700, 200));
        let s = render(&[t], 18);
        let row = s.lines().next().unwrap();
        assert!(row.contains('+'), "overlap cells collapsed: {row}");
        assert!(row.contains('#'), "MPI-only cells lost: {row}");
        assert!(row.contains('U'), "unpack-only cells lost: {row}");
    }

    #[test]
    fn out_of_order_timestamps_render_without_panic() {
        // Chunk completions land in the trace out of timestamp order; the
        // column sweep must neither panic nor depend on push order.
        let mut fwd = Trace::new();
        fwd.push(mpi(600, 200));
        fwd.push(unpack(650, 100));
        fwd.push(mpi(0, 300));
        fwd.push(fft(300, 200));
        let mut rev = Trace::new();
        rev.push(fft(300, 200));
        rev.push(mpi(0, 300));
        rev.push(unpack(650, 100));
        rev.push(mpi(600, 200));
        assert_eq!(render(&[fwd], 16), render(&[rev], 16));
    }

    #[test]
    fn zero_duration_overlap_does_not_fabricate_overlap_cells() {
        // Instantaneous events never claim a lane, so they can't turn a
        // cell into '+' on their own.
        let mut t = Trace::new();
        t.push(mpi(0, 1000));
        t.push(unpack(500, 0));
        let s = render(&[t], 10);
        let row = s.lines().next().unwrap();
        assert!(!row.contains('+'), "zero-duration made overlap: {row}");
        assert!(row.contains("##########"), "row was: {row}");
    }

    #[test]
    fn real_plan_timeline_contains_all_phases() {
        use crate::dryrun::{DryRunOpts, DryRunner};
        use crate::plan::{FftOptions, FftPlan};
        let plan = FftPlan::build([32, 32, 32], 12, FftOptions::default());
        let machine = simgrid::MachineSpec::summit();
        let mut runner = DryRunner::new(&plan, &machine, DryRunOpts::default());
        let rep = runner.run(fftkern::Direction::Forward);
        let s = render(&rep.traces, 80);
        assert_eq!(s.lines().count(), 12 + 2);
        assert!(s.contains('#'), "missing MPI spans");
        assert!(s.contains('F') || s.contains('P'), "missing kernel spans");
    }
}
