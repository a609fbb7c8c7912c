//! Critical-path extraction over the trace event DAG.
//!
//! The happens-before structure of a run has two edge kinds:
//!
//! * **program order** — on one rank, an event is preceded by the latest
//!   event finishing at or before its start;
//! * **exchange groups** — an MPI call cannot complete before every rank
//!   of its reshape group has *entered* the matching call (the collective
//!   semantics both executors implement), so a call's causal predecessor
//!   may live on the rank whose entry was latest.
//!
//! The path is walked backwards from the globally last-finishing event.
//! At an MPI call the walk jumps to the group's latest entrant and
//! continues from that rank's preceding event; at a kernel it follows
//! program order. Each step attributes a segment of the timeline to a
//! `(rank, phase, reshape)` triple; gaps are attributed as idle. The
//! segments tile a suffix of the window, so the path's **busy** length
//! (everything but idle) can never exceed the makespan — and equals it
//! exactly for a gap-free serial one-rank run.

use std::collections::BTreeMap;

use distfft::trace::{Trace, TraceEvent};
use simgrid::MachineSpec;

use crate::attr::{ideal_call_ns, kernel_phase, window, Phase, RunShape};

/// One segment of the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CritSeg {
    /// Rank the segment runs on.
    pub rank: usize,
    /// Phase attributed to the segment.
    pub phase: Phase,
    /// Segment length, ns.
    pub ns: u64,
    /// Reshape index for communication segments.
    pub reshape: Option<usize>,
}

/// The extracted critical path.
#[derive(Debug, Clone, Default)]
pub struct CritPath {
    /// Path segments in chronological order.
    pub segments: Vec<CritSeg>,
    /// Non-idle path length, ns (≤ makespan; = makespan for a gap-free
    /// serial run).
    pub busy_ns: u64,
    /// Idle/wait gaps crossed by the path, ns.
    pub idle_ns: u64,
    /// Busy contribution per phase, indexed by `Phase as usize`.
    pub by_phase: [u64; 7],
    /// Busy contribution per rank.
    pub by_rank: Vec<u64>,
    /// Communication contribution per reshape index.
    pub comm_by_reshape: BTreeMap<usize, u64>,
}

impl CritPath {
    /// Total path length including idle gaps.
    pub fn total_ns(&self) -> u64 {
        self.busy_ns + self.idle_ns
    }

    /// Share (0..=1) of the busy path spent in communication phases.
    pub fn comm_share(&self) -> f64 {
        if self.busy_ns == 0 {
            return 0.0;
        }
        let comm = self.by_phase[Phase::Send as usize] + self.by_phase[Phase::RecvWait as usize];
        comm as f64 / self.busy_ns as f64
    }

    /// Ranks that contribute at least one busy segment, ascending.
    pub fn ranks_on_path(&self) -> Vec<usize> {
        self.by_rank
            .iter()
            .enumerate()
            .filter(|(_, &ns)| ns > 0)
            .map(|(r, _)| r)
            .collect()
    }
}

/// A normalized trace event.
#[derive(Debug, Clone, Copy)]
struct Ev {
    start: u64,
    end: u64,
    kind: EvKind,
}

#[derive(Debug, Clone, Copy)]
enum EvKind {
    Kernel(distfft::KernelKind),
    Mpi {
        reshape: usize,
        occ: usize,
        bytes: usize,
    },
}

impl CritPath {
    /// Extracts the critical path of a run.
    pub fn build(traces: &[Trace], shape: &RunShape, machine: &MachineSpec) -> CritPath {
        let nranks = traces.len();
        let (w0, _w1) = window(traces);

        // Normalize: per-rank events sorted by (end, start), with a map
        // from (rank, reshape, occurrence) to the sorted index so group
        // peers' matching calls can be located.
        let mut evs: Vec<Vec<Ev>> = Vec::with_capacity(nranks);
        let mut call_idx: BTreeMap<(usize, usize, usize), usize> = BTreeMap::new();
        for (r, t) in traces.iter().enumerate() {
            let mut occ_count: BTreeMap<usize, usize> = BTreeMap::new();
            let mut v: Vec<(Ev, Option<(usize, usize)>)> = Vec::with_capacity(t.events.len());
            for e in &t.events {
                match e {
                    TraceEvent::Kernel { kind, start, dur } => v.push((
                        Ev {
                            start: start.as_ns(),
                            end: start.as_ns() + dur.as_ns(),
                            kind: EvKind::Kernel(*kind),
                        },
                        None,
                    )),
                    TraceEvent::MpiCall {
                        reshape,
                        start,
                        dur,
                        bytes,
                        ..
                    } => {
                        let count = occ_count.entry(*reshape).or_insert(0);
                        let occ = *count;
                        *count += 1;
                        v.push((
                            Ev {
                                start: start.as_ns(),
                                end: start.as_ns() + dur.as_ns(),
                                kind: EvKind::Mpi {
                                    reshape: *reshape,
                                    occ,
                                    bytes: *bytes,
                                },
                            },
                            Some((*reshape, occ)),
                        ));
                    }
                }
            }
            v.sort_by_key(|(e, _)| (e.end, e.start));
            for (i, (_, key)) in v.iter().enumerate() {
                if let Some((ri, occ)) = key {
                    call_idx.insert((r, *ri, *occ), i);
                }
            }
            evs.push(v.into_iter().map(|(e, _)| e).collect());
        }

        let mut path = CritPath {
            by_rank: vec![0; nranks],
            ..CritPath::default()
        };

        // Start from the globally last-finishing event.
        let mut cur: Option<(usize, usize)> = None;
        let mut best_end = 0u64;
        for (r, v) in evs.iter().enumerate() {
            if let Some(i) = v.len().checked_sub(1) {
                if cur.is_none() || v[i].end > best_end {
                    best_end = v[i].end;
                    cur = Some((r, i));
                }
            }
        }
        let mut t_cursor = best_end;
        let total_events: usize = evs.iter().map(|v| v.len()).sum();
        let mut steps = 0usize;

        // Latest event on rank `r` at sorted index < `from` finishing at
        // or before `t`.
        let pred = |r: usize, from: usize, t: u64| -> Option<usize> {
            evs[r][..from].iter().rposition(|e| e.end <= t)
        };

        while let Some((r, i)) = cur.take() {
            steps += 1;
            if steps > total_events * 4 + 16 {
                debug_assert!(false, "critical-path walk failed to terminate");
                break;
            }
            let e = evs[r][i];
            // Gap between this event's completion and the path frontier.
            if t_cursor > e.end {
                path.push_seg(CritSeg {
                    rank: r,
                    phase: Phase::Idle,
                    ns: t_cursor - e.end,
                    reshape: None,
                });
                t_cursor = e.end;
            }
            match e.kind {
                EvKind::Kernel(kind) => {
                    let lo = e.start.min(t_cursor);
                    path.push_seg(CritSeg {
                        rank: r,
                        phase: kernel_phase(&kind),
                        ns: t_cursor - lo,
                        reshape: None,
                    });
                    t_cursor = lo;
                    cur = pred(r, i, t_cursor).map(|j| (r, j));
                }
                EvKind::Mpi {
                    reshape,
                    occ,
                    bytes,
                } => {
                    // Latest entrant across the exchange group decides when
                    // the collective could start making progress.
                    let group: &[usize] = shape
                        .group_of
                        .get(reshape)
                        .and_then(|g| g.get(r).copied().flatten())
                        .and_then(|gi| shape.groups[reshape].get(gi))
                        .map(|g| g.as_slice())
                        .unwrap_or(&[]);
                    let mut late_rank = r;
                    let mut late_idx = i;
                    let mut late_entry = e.start;
                    for &p in group {
                        if p == r || p >= nranks {
                            continue;
                        }
                        if let Some(&j) = call_idx.get(&(p, reshape, occ)) {
                            let entry = evs[p][j].start;
                            if entry > late_entry {
                                late_entry = entry;
                                late_rank = p;
                                late_idx = j;
                            }
                        }
                    }
                    let lo = late_entry.min(t_cursor);
                    let len = t_cursor - lo;
                    let inter = shape.is_inter(reshape, r);
                    let send = ideal_call_ns(machine, bytes, inter, shape.gpu_aware).min(len);
                    // Chronologically: injection first, then wait/queue.
                    path.push_seg(CritSeg {
                        rank: r,
                        phase: Phase::RecvWait,
                        ns: len - send,
                        reshape: Some(reshape),
                    });
                    path.push_seg(CritSeg {
                        rank: r,
                        phase: Phase::Send,
                        ns: send,
                        reshape: Some(reshape),
                    });
                    t_cursor = lo;
                    cur = pred(late_rank, late_idx, t_cursor).map(|j| (late_rank, j));
                }
            }
        }
        // Startup gap back to the window origin.
        if t_cursor > w0 {
            let rank = path.segments.last().map(|s| s.rank).unwrap_or(0);
            path.push_seg(CritSeg {
                rank,
                phase: Phase::Idle,
                ns: t_cursor - w0,
                reshape: None,
            });
        }
        path.segments.reverse();
        path
    }

    fn push_seg(&mut self, seg: CritSeg) {
        if seg.ns == 0 {
            return;
        }
        if seg.phase == Phase::Idle {
            self.idle_ns += seg.ns;
        } else {
            self.busy_ns += seg.ns;
            self.by_phase[seg.phase as usize] += seg.ns;
            if let Some(r) = self.by_rank.get_mut(seg.rank) {
                *r += seg.ns;
            }
            if let Some(ri) = seg.reshape {
                if seg.phase.is_comm() {
                    *self.comm_by_reshape.entry(ri).or_insert(0) += seg.ns;
                }
            }
        }
        self.segments.push(seg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfft::dryrun::{DryRunOpts, DryRunner};
    use distfft::plan::{FftOptions, FftPlan};
    use fftkern::Direction;
    use simgrid::MachineSpec;

    fn run(n: [usize; 3], ranks: usize) -> (CritPath, u64) {
        let machine = MachineSpec::summit();
        let plan = FftPlan::build(n, ranks, FftOptions::default());
        let shape = RunShape::from_plan(&plan, &machine, true);
        let mut runner = DryRunner::new(&plan, &machine, DryRunOpts::default());
        let rep = runner.run(Direction::Forward);
        let (w0, w1) = window(&rep.traces);
        (CritPath::build(&rep.traces, &shape, &machine), w1 - w0)
    }

    #[test]
    fn path_tiles_a_window_suffix() {
        let (path, makespan) = run([32, 32, 32], 12);
        assert!(path.busy_ns > 0);
        assert!(
            path.busy_ns <= makespan,
            "busy {} > makespan {makespan}",
            path.busy_ns
        );
        assert!(path.total_ns() <= makespan);
        let seg_sum: u64 = path.segments.iter().map(|s| s.ns).sum();
        assert_eq!(seg_sum, path.total_ns());
    }

    #[test]
    fn multinode_path_contains_communication() {
        let (path, _) = run([64, 64, 64], 24);
        assert!(
            path.comm_share() > 0.0,
            "a 4-node exchange-bound run must put comm on the path: {:?}",
            path.by_phase
        );
        assert!(!path.comm_by_reshape.is_empty());
        assert!(!path.ranks_on_path().is_empty());
    }

    #[test]
    fn serial_one_rank_path_equals_makespan() {
        let (path, makespan) = run([32, 32, 32], 1);
        assert_eq!(
            path.busy_ns, makespan,
            "a serial gap-free run is 100% critical"
        );
        assert_eq!(path.idle_ns, 0);
    }
}
