//! Point-to-point transfer cost model.
//!
//! Every byte moved in the simulation is priced here. The model distinguishes
//! the three paths a message can take on a Summit-like machine:
//!
//! * **self copy** — both endpoints are the same rank (the diagonal of an
//!   all-to-all): a device-local `memcpy`;
//! * **intra-node** — over NVLink/Infinity Fabric, never touching the NIC;
//! * **inter-node** — through the node's NIC onto the fabric, where the NIC
//!   is *shared* by every rank on the node with off-node traffic in flight,
//!   and the fabric itself saturates slowly with scale (Fig. 4).
//!
//! The GPU-aware toggle (§IV-C) selects between direct device transfers and
//! the staged `device → host → host → device` path the paper describes for
//! `--no-gpu-aware`.

use crate::machine::MachineSpec;

/// Which physical path a (src, dst) pair uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkPath {
    /// Same rank: device-local copy.
    SelfCopy,
    /// Same node, different GPU: NVLink / Infinity Fabric.
    IntraNode,
    /// Different nodes: NIC + fabric.
    InterNode,
}

/// Context of the communication phase a message belongs to, needed to price
/// NIC sharing and fabric saturation.
#[derive(Debug, Clone, Copy)]
pub struct TransferCtx {
    /// Whether MPI may read/write GPU memory directly (GPU-aware). When
    /// false, messages stage through host memory on both ends.
    pub gpu_aware: bool,
    /// Off-node flows concurrently leaving each NIC during this phase
    /// (≥1). For an all-to-all over Π ranks with g per node this is
    /// typically `g` (every local rank is sending off-node at once).
    pub offnode_flows_per_nic: usize,
    /// Number of nodes participating in the phase (fabric saturation).
    pub nodes_involved: usize,
}

impl TransferCtx {
    /// A quiet network: single flow, GPU-aware.
    pub fn quiet() -> TransferCtx {
        TransferCtx {
            gpu_aware: true,
            offnode_flows_per_nic: 1,
            nodes_involved: 2,
        }
    }
}

/// Classifies the path between two ranks.
pub fn path(spec: &MachineSpec, src: usize, dst: usize) -> LinkPath {
    if src == dst {
        LinkPath::SelfCopy
    } else if spec.same_node(src, dst) {
        LinkPath::IntraNode
    } else {
        LinkPath::InterNode
    }
}

/// GB/s ≡ bytes/ns, so `bytes / gbs` is directly a duration in ns.
#[inline]
fn ns_for(bytes: usize, gbs: f64) -> f64 {
    bytes as f64 / gbs
}

/// Effective per-flow inter-node bandwidth (GB/s) under NIC sharing and
/// fabric saturation.
pub fn effective_internode_gbs(spec: &MachineSpec, ctx: &TransferCtx) -> f64 {
    let flows = ctx.offnode_flows_per_nic.max(1) as f64;
    (spec.nic_gbs / flows) * spec.fabric.efficiency(ctx.nodes_involved.max(2))
}

/// Time (ns) to move `bytes` from rank `src` to rank `dst` under `ctx`.
///
/// This is pure transport: per-message *protocol* overheads (e.g. GPU-aware
/// P2P registration) are added by the MPI layer, not here. A pure function
/// of its arguments: pricing a message records nothing, so a model probe
/// and a simulated message call the same law.
pub fn message_time_ns(
    spec: &MachineSpec,
    bytes: usize,
    src: usize,
    dst: usize,
    ctx: &TransferCtx,
) -> u64 {
    match path(spec, src, dst) {
        LinkPath::SelfCopy => {
            // Device-local copy: read + write at HBM bandwidth.
            let gbs = spec.gpu.mem_bw_gbs / 2.0;
            (ns_for(bytes, gbs)).ceil() as u64
        }
        LinkPath::IntraNode => {
            let proto = if bytes > 0 {
                ns_for(spec.proto_ramp_intra_bytes, spec.intra_link_gbs).ceil() as u64
            } else {
                0
            };
            if ctx.gpu_aware {
                spec.intra_latency_ns + proto + ns_for(bytes, spec.intra_link_gbs).ceil() as u64
            } else {
                // device → host and host → device, each at ~40% of the
                // host-link bandwidth (pageable staging buffers, CPU copy),
                // plus the extra staging latency.
                let hop = ns_for(bytes, spec.host_link_gbs / 2.5);
                spec.intra_latency_ns + spec.staging_latency_ns + proto + (2.0 * hop).ceil() as u64
            }
        }
        LinkPath::InterNode => {
            // Per-message protocol cost at the raw NIC rate: mid-size
            // messages do not reach peak bandwidth (rendezvous handshake,
            // pipeline fill) — amortized away by batched/coalesced sends.
            let proto = if bytes > 0 {
                ns_for(spec.proto_ramp_inter_bytes, spec.nic_gbs).ceil() as u64
            } else {
                0
            };
            let wire = ns_for(bytes, effective_internode_gbs(spec, ctx));
            if ctx.gpu_aware {
                spec.inter_latency_ns + proto + wire.ceil() as u64
            } else {
                let hop = ns_for(bytes, spec.host_link_gbs / 2.5);
                spec.inter_latency_ns
                    + spec.staging_latency_ns
                    + proto
                    + (wire + 2.0 * hop).ceil() as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summit() -> MachineSpec {
        MachineSpec::summit()
    }

    #[test]
    fn path_classification() {
        let s = summit();
        assert_eq!(path(&s, 3, 3), LinkPath::SelfCopy);
        assert_eq!(path(&s, 0, 5), LinkPath::IntraNode);
        assert_eq!(path(&s, 0, 6), LinkPath::InterNode);
    }

    #[test]
    fn intra_node_is_faster_than_inter_node() {
        let s = summit();
        let ctx = TransferCtx::quiet();
        let b = 1 << 20;
        let intra = message_time_ns(&s, b, 0, 1, &ctx);
        let inter = message_time_ns(&s, b, 0, 6, &ctx);
        assert!(intra < inter, "intra {intra} vs inter {inter}");
    }

    #[test]
    fn bandwidth_term_dominates_large_messages() {
        let s = summit();
        let ctx = TransferCtx::quiet();
        // 1 GiB over NVLink at 50 GB/s ≈ 21.5 ms.
        let t = message_time_ns(&s, 1 << 30, 0, 1, &ctx);
        let expect = (1u64 << 30) as f64 / 50.0;
        assert!((t as f64 - expect).abs() / expect < 0.01);
    }

    #[test]
    fn latency_and_protocol_dominate_tiny_messages() {
        let s = summit();
        let ctx = TransferCtx::quiet();
        let t = message_time_ns(&s, 8, 0, 6, &ctx);
        // A tiny message pays latency + the per-message protocol ramp, with
        // a negligible wire term.
        let proto = (s.proto_ramp_inter_bytes as f64 / s.nic_gbs).ceil() as u64;
        assert!(t >= s.inter_latency_ns + proto);
        assert!(t < s.inter_latency_ns + proto + 100);
        // Zero-byte probes are pure latency (used to split cost into
        // injection and latency parts).
        assert_eq!(message_time_ns(&s, 0, 0, 6, &ctx), s.inter_latency_ns);
    }

    #[test]
    fn nic_sharing_divides_bandwidth() {
        let s = summit();
        let quiet = TransferCtx::quiet();
        let busy = TransferCtx {
            offnode_flows_per_nic: 6,
            ..TransferCtx::quiet()
        };
        let b = 64 << 20;
        let t_quiet = message_time_ns(&s, b, 0, 6, &quiet);
        let t_busy = message_time_ns(&s, b, 0, 6, &busy);
        assert!(
            t_busy as f64 > 5.0 * t_quiet as f64,
            "6-way NIC sharing should cut bandwidth ~6x: {t_quiet} vs {t_busy}"
        );
    }

    #[test]
    fn staging_penalty_is_about_30_percent_at_scale() {
        // Fig. 11: disabling GPU-awareness increases communication cost by
        // ≈30 % at 16 nodes (message sizes in the MB range, 6 flows/NIC).
        let s = summit();
        let aware = TransferCtx {
            gpu_aware: true,
            offnode_flows_per_nic: 6,
            nodes_involved: 16,
        };
        let staged = TransferCtx {
            gpu_aware: false,
            ..aware
        };
        let b = 4 << 20;
        let t_aware = message_time_ns(&s, b, 0, 6, &aware);
        let t_staged = message_time_ns(&s, b, 0, 6, &staged);
        let ratio = t_staged as f64 / t_aware as f64;
        assert!(
            (1.15..1.55).contains(&ratio),
            "staged/aware ratio {ratio:.2} out of the paper's ~1.3 band"
        );
    }

    #[test]
    fn fabric_saturation_reduces_effective_bandwidth() {
        let s = summit();
        let small = TransferCtx {
            gpu_aware: true,
            offnode_flows_per_nic: 6,
            nodes_involved: 2,
        };
        let large = TransferCtx {
            nodes_involved: 128,
            ..small
        };
        assert!(effective_internode_gbs(&s, &large) < effective_internode_gbs(&s, &small));
    }

    #[test]
    fn self_copy_has_no_latency_floor() {
        let s = summit();
        let ctx = TransferCtx::quiet();
        let t = message_time_ns(&s, 16, 2, 2, &ctx);
        assert!(t < 10, "self-copy of 16 bytes should be ~free, got {t}");
    }
}
