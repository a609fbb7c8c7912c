//! Link-contention accounting.
//!
//! Every MPI call in a trace took `dur` nanoseconds; on a quiet network
//! the same payload would have taken [`ideal_call_ns`]. The difference is
//! **queuing delay** — time the payload spent waiting behind other flows
//! on a shared link (the node NIC for inter-node groups, the NVLink
//! complex for intra-node ones) plus the peer-synchronization skew folded
//! into the collective. This module attributes that delay back to the
//! reshape step that caused it and the node-level link it queued on.

use std::collections::BTreeMap;

use distfft::trace::{Trace, TraceEvent};
use simgrid::MachineSpec;

use crate::attr::{ideal_call_ns, RunShape};

/// Which shared link class an exchange queues on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LinkClass {
    /// Intra-node GPU interconnect (NVLink complex).
    IntraNode,
    /// The node's network interface (NIC / fabric).
    InterNode,
}

impl LinkClass {
    /// Stable lower-case label.
    pub fn label(&self) -> &'static str {
        match self {
            LinkClass::IntraNode => "intra-node",
            LinkClass::InterNode => "inter-node",
        }
    }
}

/// Aggregated contention for one `(reshape, link class)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReshapeContention {
    /// MPI calls aggregated.
    pub calls: u64,
    /// Payload bytes injected by the calling ranks.
    pub bytes: u64,
    /// Measured call time, summed over ranks, ns.
    pub actual_ns: u64,
    /// Quiet-network time for the same payloads, ns.
    pub ideal_ns: u64,
    /// Queuing delay: `actual - ideal`, saturating per call, ns.
    pub queue_ns: u64,
}

/// Queuing delay accumulated on one node's shared link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkQueue {
    /// Node index.
    pub node: usize,
    /// Link class the delay accrued on.
    pub class: LinkClass,
    /// Total queuing delay over the node's ranks, ns.
    pub queue_ns: u64,
    /// Calls contributing.
    pub calls: u64,
}

/// The full contention account of a run.
#[derive(Debug, Clone, Default)]
pub struct Contention {
    /// Per `(reshape index, link class)` aggregation.
    pub by_reshape: BTreeMap<(usize, LinkClass), ReshapeContention>,
    /// Per-node shared-link queues, sorted by `queue_ns` descending.
    pub by_node: Vec<LinkQueue>,
}

impl Contention {
    /// Builds the account by replaying every MPI call against the
    /// quiet-network cost model.
    pub fn build(traces: &[Trace], shape: &RunShape, machine: &MachineSpec) -> Contention {
        let mut by_reshape: BTreeMap<(usize, LinkClass), ReshapeContention> = BTreeMap::new();
        let mut by_node: BTreeMap<(usize, LinkClass), (u64, u64)> = BTreeMap::new();
        for (rank, t) in traces.iter().enumerate() {
            for e in &t.events {
                if let TraceEvent::MpiCall {
                    reshape,
                    dur,
                    bytes,
                    ..
                } = e
                {
                    let inter = shape.is_inter(*reshape, rank);
                    let class = if inter {
                        LinkClass::InterNode
                    } else {
                        LinkClass::IntraNode
                    };
                    let ideal = ideal_call_ns(machine, *bytes, inter, shape.gpu_aware);
                    let actual = dur.as_ns();
                    let queue = actual.saturating_sub(ideal);
                    let c = by_reshape.entry((*reshape, class)).or_default();
                    c.calls += 1;
                    c.bytes += *bytes as u64;
                    c.actual_ns += actual;
                    c.ideal_ns += ideal.min(actual);
                    c.queue_ns += queue;
                    let node = machine.node_of(rank);
                    let n = by_node.entry((node, class)).or_insert((0, 0));
                    n.0 += queue;
                    n.1 += 1;
                }
            }
        }
        let mut by_node: Vec<LinkQueue> = by_node
            .into_iter()
            .map(|((node, class), (queue_ns, calls))| LinkQueue {
                node,
                class,
                queue_ns,
                calls,
            })
            .collect();
        by_node.sort_by(|a, b| b.queue_ns.cmp(&a.queue_ns).then(a.node.cmp(&b.node)));
        Contention {
            by_node,
            by_reshape,
        }
    }

    /// Total queuing delay across all reshapes, ns.
    pub fn total_queue_ns(&self) -> u64 {
        self.by_reshape.values().map(|c| c.queue_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfft::dryrun::{DryRunOpts, DryRunner};
    use distfft::plan::{FftOptions, FftPlan};
    use fftkern::Direction;

    #[test]
    fn congested_exchange_shows_queue_delay() {
        let machine = MachineSpec::summit();
        let plan = FftPlan::build([64, 64, 64], 24, FftOptions::default());
        let shape = RunShape::from_plan(&plan, &machine, true);
        let mut runner = DryRunner::new(&plan, &machine, DryRunOpts::default());
        let rep = runner.run(Direction::Forward);
        let c = Contention::build(&rep.traces, &shape, &machine);
        assert!(!c.by_reshape.is_empty());
        // Many flows share each NIC: measured time must exceed the
        // single-flow quiet-network ideal somewhere.
        assert!(c.total_queue_ns() > 0, "{c:?}");
        let hot = c.by_reshape.values().max_by_key(|c| c.queue_ns).unwrap();
        assert!(hot.queue_ns > 0 && hot.queue_ns < hot.actual_ns, "{hot:?}");
        // Every aggregate is internally consistent.
        for c in c.by_reshape.values() {
            assert_eq!(c.actual_ns, c.ideal_ns + c.queue_ns);
        }
    }

    #[test]
    fn by_node_is_sorted_and_complete() {
        let machine = MachineSpec::summit();
        let plan = FftPlan::build([32, 32, 32], 12, FftOptions::default());
        let shape = RunShape::from_plan(&plan, &machine, true);
        let mut runner = DryRunner::new(&plan, &machine, DryRunOpts::default());
        let rep = runner.run(Direction::Forward);
        let c = Contention::build(&rep.traces, &shape, &machine);
        let node_total: u64 = c.by_node.iter().map(|l| l.queue_ns).sum();
        assert_eq!(node_total, c.total_queue_ns());
        for w in c.by_node.windows(2) {
            assert!(w[0].queue_ns >= w[1].queue_ns);
        }
    }
}
