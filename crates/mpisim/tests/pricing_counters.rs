//! A walk prices each distinct (bytes, link path) once, but its
//! `simgrid.msgs.*` / `simgrid.bytes.*` counters must still read as if every
//! message had been priced from scratch: two counted link prices (payload,
//! then the zero-byte latency probe) per message and pass, plus one per
//! diagonal self copy. Its own test binary, because the fftobs registry is
//! process-global and any concurrently running walk would add to it.

use mpisim::pattern::{
    bruck_times, pairwise_times, scatter_times, NetParams, P2pFlavor, PhaseEnv, ScatterPolicy,
};
use simgrid::link::{message_time_ns, TransferCtx};
use simgrid::{MachineSpec, SimTime};

fn simgrid_counters() -> Vec<(String, u64)> {
    let snap = fftobs::registry().snapshot();
    ["msgs", "bytes"]
        .iter()
        .flat_map(|what| {
            ["self_copy", "intra_node", "inter_node"].map(|link| format!("simgrid.{what}.{link}"))
        })
        .map(|name| {
            let n = snap.counter(&name).unwrap_or(0);
            (name, n)
        })
        .collect()
}

/// Counts `body`'s simgrid counters from a clean registry.
fn counted(body: impl FnOnce()) -> Vec<(String, u64)> {
    fftobs::registry().reset();
    body();
    simgrid_counters()
}

#[test]
fn deduplicated_walks_count_every_message() {
    let spec = MachineSpec::summit();
    let np = NetParams::exact(&spec);
    let env = PhaseEnv::machine_wide(&spec, 18, 7, true, 3);
    let ctx = TransferCtx {
        gpu_aware: env.gpu_aware,
        offnode_flows_per_nic: env.flows_per_nic,
        nodes_involved: env.nodes,
    };
    // Per-message reference: one pass's price of one message.
    let price = |b: usize, src: usize, dst: usize| {
        message_time_ns(&spec, b, src, dst, &ctx);
        message_time_ns(&spec, 0, src, dst, &ctx);
    };
    let selfcopy = |b: usize, rank: usize| {
        message_time_ns(&spec, b, rank, rank, &ctx);
    };

    let group = [0usize, 2, 5, 6, 9, 13, 14, 17];
    let p = group.len();
    let entries = vec![SimTime::ZERO; p];
    let sizes = [0usize, 4096, 4096, 12_288, 1 << 20];
    let bytes = |i: usize, j: usize| sizes[(i * 7 + j * 4) % sizes.len()];
    let totals: Vec<usize> = (0..p).map(|i| sizes[i % sizes.len()] * p).collect();
    let policy = |post_zero| ScatterPolicy {
        flavor: P2pFlavor::NonBlocking,
        post_zero,
        inline_recv: false,
        extra_send_ns: &|_, _| 0,
        extra_recv_ns: &|_, _| 0,
    };

    fftobs::set_enabled(true);
    let walks = counted(|| {
        pairwise_times(&np, &env, &group, &entries, &bytes, 0);
        bruck_times(&np, &env, &group, &entries, &totals);
        for post_zero in [false, true] {
            scatter_times(&np, &env, &group, &entries, &bytes, &policy(post_zero));
        }
    });
    let reference = counted(|| {
        // Pairwise: a self copy each, then every message in its send pass
        // and again in its receive pass.
        for (i, &rank) in group.iter().enumerate() {
            selfcopy(bytes(i, i), rank);
        }
        for i in 0..p {
            for j in (0..p).filter(|&j| j != i) {
                price(bytes(i, j), group[i], group[j]);
                price(bytes(i, j), group[i], group[j]);
            }
        }
        // Bruck: half a member's total to `me + 2^r`, in both passes.
        let mut hop = 1;
        while hop < p {
            for i in 0..p {
                let dst = (i + hop) % p;
                price(totals[i] / 2, group[i], group[dst]);
                price(totals[i] / 2, group[i], group[dst]);
            }
            hop *= 2;
        }
        // Scatter: as pairwise, skipping empty pairs unless zeros post.
        for post_zero in [false, true] {
            for (i, &rank) in group.iter().enumerate() {
                selfcopy(bytes(i, i), rank);
            }
            for i in 0..p {
                for j in (0..p).filter(|&j| j != i && (post_zero || bytes(i, j) > 0)) {
                    price(bytes(i, j), group[i], group[j]);
                    price(bytes(i, j), group[i], group[j]);
                }
            }
        }
    });
    fftobs::set_enabled(false);

    assert!(
        walks.iter().all(|(_, n)| *n > 0),
        "every link path must be exercised: {walks:?}"
    );
    assert_eq!(walks, reference);
}
