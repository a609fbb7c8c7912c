//! Pure schedule walkers — the single source of truth for communication
//! timing.
//!
//! Each walker prices one communication phase (an all-to-all, a Bruck
//! exchange, a scatter of point-to-point messages) given the participating
//! world ranks, their entry times, and the per-pair byte counts. The
//! functional engine calls these to advance rank clocks; the analytic
//! dry-run executor in `distfft` calls the *same functions* with the same
//! arguments — which is why both modes report identical times.
//!
//! All pricing bottoms out in `simgrid::link`, with an optional
//! deterministic per-message jitter (`simgrid::noise::hash_jitter`). Within
//! one walk every message shares the phase's [`TransferCtx`], so its
//! transport cost depends only on (bytes, link path): a `Pricer` prices
//! each distinct pair once and applies the jitter per message (none at
//! zero amplitude). Each message is priced once per walk: its injection
//! time is also the drain its receiver charges, and its latency is carried
//! from the injecting pass to the arriving one.

use simgrid::link::{self, LinkPath, TransferCtx};
use simgrid::noise::hash_jitter;
use simgrid::{MachineSpec, SimTime};

/// CPU-side cost of initiating a send (descriptor setup, protocol).
pub const SEND_OVERHEAD_NS: u64 = 200;
/// CPU-side cost of completing a receive (matching, dequeue).
pub const RECV_OVERHEAD_NS: u64 = 300;

/// Environment of one communication phase: how the network is being shared
/// while this phase runs, plus an id for deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseEnv {
    /// Whether messages may move device-direct (GPU-aware MPI).
    pub gpu_aware: bool,
    /// Concurrent off-node flows per NIC during this phase (≥1). For a
    /// machine-wide exchange this is the number of ranks per node.
    pub flows_per_nic: usize,
    /// Nodes participating machine-wide (fabric saturation input).
    pub nodes: usize,
    /// Accepted and ignored; spelled by the frozen `benchmark/`.
    #[doc(hidden)]
    pub p2p_peers: usize,
    /// Phase identifier, part of the jitter key.
    pub phase_id: u64,
}

impl PhaseEnv {
    /// A quiet network: single flow, two nodes, one peer.
    pub fn quiet(gpu_aware: bool) -> PhaseEnv {
        PhaseEnv {
            gpu_aware,
            flows_per_nic: 1,
            nodes: 2,
            p2p_peers: 1,
            phase_id: 0,
        }
    }

    /// Derives the environment for a machine-wide phase over `total_ranks`
    /// ranks where each rank exchanges with `peers` peers.
    pub fn machine_wide(
        spec: &MachineSpec,
        total_ranks: usize,
        peers: usize,
        gpu_aware: bool,
        phase_id: u64,
    ) -> PhaseEnv {
        PhaseEnv {
            gpu_aware,
            flows_per_nic: spec.gpus_per_node.min(total_ranks.max(1)),
            nodes: spec.nodes_for(total_ranks),
            p2p_peers: peers.max(1),
            phase_id,
        }
    }

    fn transfer_ctx(&self) -> TransferCtx {
        TransferCtx {
            gpu_aware: self.gpu_aware,
            offnode_flows_per_nic: self.flows_per_nic,
            nodes_involved: self.nodes,
        }
    }
}

/// Network pricing parameters shared by a run: machine + jitter settings.
#[derive(Debug, Clone, Copy)]
pub struct NetParams<'a> {
    /// Machine description.
    pub spec: &'a MachineSpec,
    /// Jitter seed (from `WorldOpts::seed`).
    pub seed: u64,
    /// Jitter amplitude (from `WorldOpts::noise_amplitude`).
    pub noise_amp: f64,
}

impl<'a> NetParams<'a> {
    /// Exact pricing (no jitter).
    pub fn exact(spec: &'a MachineSpec) -> NetParams<'a> {
        NetParams {
            spec,
            seed: 0,
            noise_amp: 0.0,
        }
    }
}

/// Point-to-point schedule flavor (Fig. 7: blocking `MPI_Send` vs
/// non-blocking `MPI_Isend`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum P2pFlavor {
    /// `MPI_Send` + `MPI_Irecv`: each send occupies the sender until its
    /// injection completes.
    Blocking,
    /// `MPI_Isend` + `MPI_Irecv` + `MPI_Waitany`: sends are posted
    /// back-to-back; injection still serializes on the NIC port.
    NonBlocking,
}

/// One distinct (bytes, link path) price of a walk.
struct Price {
    bytes: usize,
    link: LinkPath,
    inject: u64,
    lat: u64,
}

/// A walk's view of one member: its world rank and its node, computed
/// once per walk so no message divides by `gpus_per_node`.
type Member = (usize, usize);

fn members(spec: &MachineSpec, group: &[usize]) -> Vec<Member> {
    group.iter().map(|&r| (r, spec.node_of(r))).collect()
}

/// The message pricer of one walk: splits a message's cost into
/// (injection, latency) parts, with jitter applied to the injection.
///
/// Transport is priced once per distinct (bytes, link path), found by a
/// linear scan: a walk over a block distribution sees only a handful of
/// distinct prices however many pairs it has. Links are classified from
/// the members' nodes. At zero noise amplitude the injection is returned
/// as priced (`hash_jitter` would be exactly 1). Prices live for one walk
/// only.
struct Pricer<'a> {
    np: &'a NetParams<'a>,
    env: &'a PhaseEnv,
    ctx: TransferCtx,
    prices: Vec<Price>,
}

impl<'a> Pricer<'a> {
    fn new(np: &'a NetParams<'a>, env: &'a PhaseEnv) -> Pricer<'a> {
        Pricer {
            np,
            env,
            ctx: env.transfer_ctx(),
            prices: Vec::new(),
        }
    }

    fn parts(
        &mut self,
        bytes: usize,
        (src, src_node): Member,
        (dst, dst_node): Member,
    ) -> (u64, u64) {
        let link = if src == dst {
            LinkPath::SelfCopy
        } else if src_node == dst_node {
            LinkPath::IntraNode
        } else {
            LinkPath::InterNode
        };
        let hit = self
            .prices
            .iter()
            .find(|p| p.bytes == bytes && p.link == link);
        let (inject, lat) = match hit {
            Some(price) => (price.inject, price.lat),
            None => {
                let spec = self.np.spec;
                let total = link::message_time_ns(spec, bytes, src, dst, &self.ctx);
                let lat = link::message_time_ns(spec, 0, src, dst, &self.ctx);
                let inject = total.saturating_sub(lat);
                self.prices.push(Price {
                    bytes,
                    link,
                    inject,
                    lat,
                });
                (inject, lat)
            }
        };
        let np = self.np;
        if np.noise_amp == 0.0 {
            return (inject, lat);
        }
        let j = hash_jitter(
            np.seed,
            self.env.phase_id,
            src as u64,
            dst as u64,
            np.noise_amp,
        );
        ((inject as f64 * j).round() as u64, lat)
    }
}

/// Cost (ns) of the local self-copy on the diagonal of an exchange.
pub fn selfcopy_ns(np: &NetParams, env: &PhaseEnv, rank: usize, bytes: usize) -> u64 {
    let ctx = env.transfer_ctx();
    link::message_time_ns(np.spec, bytes, rank, rank, &ctx)
}

/// Prices a **pairwise-exchange all-to-all** (the large-message algorithm in
/// MPICH/SpectrumMPI for `MPI_Alltoall(v)`): `p-1` step-synchronized
/// send-receive rounds, partner at step `s` being `(me + s) mod p`.
///
/// `group[i]` is the world rank of member `i`; `entries[i]` its entry time;
/// `bytes(i, j)` the payload member `i` sends member `j`. Returns exit times.
pub fn pairwise_times(
    np: &NetParams,
    env: &PhaseEnv,
    group: &[usize],
    entries: &[SimTime],
    bytes: &dyn Fn(usize, usize) -> usize,
    extra_per_msg_ns: u64,
) -> Vec<SimTime> {
    let mut pricer = Pricer::new(np, env);
    let mut price = |b, src, dst| pricer.parts(b, src, dst);
    pairwise_walk(
        np,
        env,
        &members(np.spec, group),
        entries,
        bytes,
        extra_per_msg_ns,
        &mut price,
    )
}

/// `price(bytes, src, dst)` is the (injection, latency) of one message;
/// each step prices each message once.
#[expect(
    clippy::indexing_slicing,
    reason = "`entries` holds `p` entries (asserted) and peer indices are taken modulo `p`"
)]
fn pairwise_walk(
    np: &NetParams,
    env: &PhaseEnv,
    members: &[Member],
    entries: &[SimTime],
    bytes: &dyn Fn(usize, usize) -> usize,
    extra_per_msg_ns: u64,
    price: &mut impl FnMut(usize, Member, Member) -> (u64, u64),
) -> Vec<SimTime> {
    let p = members.len();
    assert_eq!(entries.len(), p);
    if p == 0 {
        return Vec::new();
    }
    let mut now: Vec<SimTime> = (0..p)
        .map(|i| entries[i] + SimTime::from_ns(selfcopy_ns(np, env, members[i].0, bytes(i, i))))
        .collect();
    // Per member: its NIC's free time (its injection end once a step's
    // injection pass ran) and the latency of the message it sent.
    let mut sent: Vec<(SimTime, u64)> = now.iter().map(|&t| (t, 0)).collect();

    for step in 1..p {
        // Injection pass: everyone prices its send of this step.
        for (i, (nic, lat)) in sent.iter_mut().enumerate() {
            let dst = (i + step) % p;
            let (inject, l) = price(bytes(i, dst), members[i], members[dst]);
            let start = (now[i] + SimTime::from_ns(SEND_OVERHEAD_NS + extra_per_msg_ns)).max(*nic);
            *nic = start + SimTime::from_ns(inject);
            *lat = l;
        }
        // Completion pass: sendrecv finishes when both directions are done.
        for (i, t) in now.iter_mut().enumerate() {
            let (inj_end, lat) = sent[(i + p - step) % p];
            let arrival = inj_end + SimTime::from_ns(lat);
            *t = sent[i].0.max(arrival) + SimTime::from_ns(RECV_OVERHEAD_NS + extra_per_msg_ns);
        }
    }
    now
}

/// Prices a **Bruck all-to-all** (the small-message algorithm): `⌈log₂ p⌉`
/// rounds, each moving roughly half of a rank's total payload to
/// `(me + 2^r) mod p`, with a local reorder between rounds.
pub fn bruck_times(
    np: &NetParams,
    env: &PhaseEnv,
    group: &[usize],
    entries: &[SimTime],
    total_send_bytes: &[usize],
) -> Vec<SimTime> {
    let mut pricer = Pricer::new(np, env);
    let mut price = |b, src, dst| pricer.parts(b, src, dst);
    bruck_walk(
        np,
        &members(np.spec, group),
        entries,
        total_send_bytes,
        &mut price,
    )
}

#[expect(
    clippy::indexing_slicing,
    reason = "`entries` and `total_send_bytes` hold one entry per member and peer indices are taken modulo `p`"
)]
fn bruck_walk(
    np: &NetParams,
    members: &[Member],
    entries: &[SimTime],
    total_send_bytes: &[usize],
    price: &mut impl FnMut(usize, Member, Member) -> (u64, u64),
) -> Vec<SimTime> {
    let p = members.len();
    assert_eq!(entries.len(), p);
    if p <= 1 {
        return entries.to_vec();
    }
    let rounds = usize::BITS - (p - 1).leading_zeros(); // ceil(log2 p)
    let mut now = entries.to_vec();
    // Per member: NIC free time / injection end, and its message's latency.
    let mut sent: Vec<(SimTime, u64)> = entries.iter().map(|&t| (t, 0)).collect();

    for r in 0..rounds {
        let hop = 1usize << r;
        for (i, (nic, lat)) in sent.iter_mut().enumerate() {
            let dst = (i + hop) % p;
            let b = total_send_bytes[i] / 2;
            let (inject, l) = price(b, members[i], members[dst]);
            // Bruck reorders locally before each round: charge a pack pass.
            let pack = np.spec.kernel_model().pack_ns(b);
            let start = (now[i] + SimTime::from_ns(SEND_OVERHEAD_NS + pack)).max(*nic);
            *nic = start + SimTime::from_ns(inject);
            *lat = l;
        }
        for (i, t) in now.iter_mut().enumerate() {
            let (inj_end, lat) = sent[(i + p - hop) % p];
            let arrival = inj_end + SimTime::from_ns(lat);
            *t = sent[i].0.max(arrival) + SimTime::from_ns(RECV_OVERHEAD_NS);
        }
    }
    now
}

/// Partition index of the message a sender posts at step `step` (∈ `1..p`,
/// peer order `(me+step) mod p`) when the exchange is split into `nparts`
/// chunks. The `p-1` steps are divided into `nparts` contiguous,
/// near-equal runs; both sender and receiver compute the same index for a
/// given (src, dst) pair because the step is `(dst - src) mod p` from
/// either side — this is what makes the chunk structure a global property
/// of the exchange rather than a per-rank convention.
pub fn partition_of_step(step: usize, p: usize, nparts: usize) -> usize {
    debug_assert!(p >= 2 && step >= 1 && step < p && nparts >= 1);
    ((step - 1) * nparts / (p - 1)).min(nparts - 1)
}

/// Result of pricing one exchange: when each receive chunk has fully
/// landed on each member, plus the per-member call-completion times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionedTimes {
    nparts: usize,
    /// `p · nparts` chunk-ready times (member-major), then `p` exits.
    flat: Vec<SimTime>,
}

impl PartitionedTimes {
    fn from_flat(flat: Vec<SimTime>, nparts: usize) -> PartitionedTimes {
        assert!(nparts >= 1 && flat.len().is_multiple_of(nparts + 1));
        PartitionedTimes { nparts, flat }
    }

    /// A single chunk that is ready exactly when the call exits — the
    /// shape of every step-synchronized algorithm (Bruck, pairwise).
    pub(crate) fn from_exits(exits: Vec<SimTime>) -> PartitionedTimes {
        let mut flat = exits.clone();
        flat.extend(exits);
        PartitionedTimes { nparts: 1, flat }
    }

    fn members(&self) -> usize {
        self.flat.len() / (self.nparts + 1)
    }

    /// `ready(i)[k]`: the time member `i` has received (drained and
    /// matched) every chunk-`k` message destined to it. Unpack for chunk
    /// `k` may start here — before later chunks (or the member's own
    /// sends) have finished. Never later than [`exit`](Self::exit)`(i)`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`i` is a member index, so its `nparts` ready times lie inside the `p * nparts` block"
    )]
    pub fn ready(&self, i: usize) -> &[SimTime] {
        &self.flat[i * self.nparts..(i + 1) * self.nparts]
    }

    /// Per-member call-completion times: all sends injected and all
    /// receives drained.
    #[expect(
        clippy::indexing_slicing,
        reason = "`flat` holds `p * nparts` ready times followed by `p` exits"
    )]
    pub fn exits(&self) -> &[SimTime] {
        &self.flat[self.members() * self.nparts..]
    }

    /// Call-completion time of member `i`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`i` is a member index, below the `p` exits"
    )]
    pub fn exit(&self, i: usize) -> SimTime {
        self.exits()[i]
    }
}

/// The knobs of one scatter phase (see [`scatter_times`]).
pub struct ScatterPolicy<'a> {
    /// Blocking sends occupy the sender until injected.
    pub flavor: P2pFlavor,
    /// Zero-byte pairs still pay posting/completion overheads (a
    /// collective must post every pair; heFFTe's hand-written P2P loop
    /// skips them).
    pub post_zero: bool,
    /// Where the CPU-side receive completion (`RECV_OVERHEAD_NS` +
    /// `extra_recv_ns`) is charged. `false`: one trailing pass after the
    /// send loop (post all, `MPI_Waitall`) — nothing is usable before the
    /// call exits, so every chunk is ready at the exit. `true`: inline per
    /// message as it lands (`MPI_Waitany` per partition), which is what
    /// lets a chunk's unpack overlap the remaining receives.
    pub inline_recv: bool,
    /// Extra send cost of one message, from `(sender, bytes)` (datatype
    /// assembly, GPU registration).
    pub extra_send_ns: &'a dyn Fn(usize, usize) -> u64,
    /// Extra receive-completion cost of one message, from `(sender, bytes)`.
    pub extra_recv_ns: &'a dyn Fn(usize, usize) -> u64,
}

/// Prices a **scatter phase**: every member posts one message to every peer
/// (peer order `(me+1) mod p, (me+2) mod p, …`), then drains its receives in
/// arrival order. This is simultaneously:
///
/// * SpectrumMPI's basic-linear `MPI_Alltoallv` (post all, wait all),
/// * the naive `Isend`/`Irecv` loop that implements `MPI_Alltoallw` in
///   MPICH/SpectrumMPI for *any* size (paper §II),
/// * the heFFTe point-to-point backend (blocking or non-blocking flavor), and
/// * every **partitioned** exchange behind the pipelined reshapes.
///
/// `part_entries` holds `nparts = len / p` entry times per member
/// (member-major): member `i`'s messages are split into chunks by
/// [`partition_of_step`] and chunk `k` may not post before
/// `part_entries[i·nparts + k]` (its pack completion). The send chain
/// serializes on the member's NIC in peer order, so early chunks inject
/// while late chunks are still packing; `nparts = 1` is the plain scatter.
///
/// The receive pass charges an **RX drain** per message — the receiving
/// NIC/link absorbs bytes no faster than the sending one injects them — so
/// naive scatters see incast pressure instead of free parallelism.
///
/// Time-shift invariant like every walker here.
pub fn scatter_times(
    np: &NetParams,
    env: &PhaseEnv,
    group: &[usize],
    part_entries: &[SimTime],
    bytes: &dyn Fn(usize, usize) -> usize,
    policy: &ScatterPolicy,
) -> PartitionedTimes {
    let mut pricer = Pricer::new(np, env);
    let mut price = |b, src, dst| pricer.parts(b, src, dst);
    scatter_walk(
        np,
        env,
        &members(np.spec, group),
        part_entries,
        bytes,
        policy,
        &mut price,
    )
}

/// One message in its receiver's row of a scatter walk's arrival table.
#[derive(Clone, Copy)]
struct Arrival {
    /// Arrival time, ns.
    ns: u64,
    /// `sender << 32 | partition`.
    src_part: u64,
    /// Injection time: the receiver drains the message as fast as it was
    /// injected.
    drain: u64,
}

impl Arrival {
    const NONE: Arrival = Arrival {
        ns: u64::MAX,
        src_part: u64::MAX,
        drain: 0,
    };

    /// Sorts as (arrival, sender, partition).
    fn key(&self) -> u128 {
        u128::from(self.ns) << 64 | u128::from(self.src_part)
    }
}

/// The send pass prices each message once and records it in its
/// receiver's row of one flat arrival table, with its injection time,
/// which is also its receive-side drain. The receive pass sorts each row
/// by arrival (then sender) and walks it without pricing anything.
#[expect(
    clippy::indexing_slicing,
    reason = "`part_entries` holds `p * nparts` entries (asserted), partition indices stay below `nparts` and `slot(i, j)` below `p * (p - 1)` for `i != j`"
)]
fn scatter_walk(
    np: &NetParams,
    env: &PhaseEnv,
    members: &[Member],
    part_entries: &[SimTime],
    bytes: &dyn Fn(usize, usize) -> usize,
    policy: &ScatterPolicy,
    price: &mut impl FnMut(usize, Member, Member) -> (u64, u64),
) -> PartitionedTimes {
    let p = members.len();
    if p == 0 {
        return PartitionedTimes::from_flat(Vec::new(), 1);
    }
    let nparts = part_entries.len() / p;
    assert!(
        nparts >= 1 && part_entries.len() == p * nparts,
        "every member must supply one entry time per partition"
    );
    // Receiver `j`'s row is `arrivals[j·(p−1)..][..p−1]`, one slot per
    // sender; a slot nobody posts to keeps `Arrival::NONE`, which sorts last.
    let width = p - 1;
    let slot = |src: usize, dst: usize| dst * width + src - usize::from(src > dst);
    let mut arrivals = vec![Arrival::NONE; p * width];
    // `p · nparts` ready times, then the exits; the exit slots hold each
    // member's send completion until the receive pass.
    let mut flat = vec![SimTime::ZERO; p * nparts + p];
    let (ready_all, exits) = flat.split_at_mut(p * nparts);

    // Send pass: serialize each sender's injections, each message gated
    // on its own chunk's entry; record arrivals.
    for (i, send_done) in exits.iter_mut().enumerate() {
        let pe = &part_entries[i * nparts..(i + 1) * nparts];
        let mut t = pe[0] + SimTime::from_ns(selfcopy_ns(np, env, members[i].0, bytes(i, i)));
        let mut nic = t;
        for k in 1..p {
            let j = (i + k) % p;
            let part = match nparts {
                1 => 0,
                _ => partition_of_step(k, p, nparts),
            };
            t = t.max(pe[part]);
            let b = bytes(i, j);
            if b == 0 && !policy.post_zero {
                continue;
            }
            let post = t + SimTime::from_ns(SEND_OVERHEAD_NS + (policy.extra_send_ns)(i, b));
            let (inject, lat) = price(b, members[i], members[j]);
            let start = post.max(nic);
            let end = start + SimTime::from_ns(inject);
            nic = end;
            arrivals[slot(i, j)] = Arrival {
                ns: (end + SimTime::from_ns(lat)).as_ns(),
                src_part: (i as u64) << 32 | part as u64,
                drain: inject,
            };
            t = match policy.flavor {
                P2pFlavor::Blocking => end,
                P2pFlavor::NonBlocking => post,
            };
        }
        *send_done = t.max(nic);
    }

    // Receive pass. The RX direction of the NIC drains arrivals in arrival
    // order, concurrently with the member's own injections (links are full
    // duplex); the CPU-side completion work (waitany matching, datatype
    // unpack) lands inline or in one trailing pass per the policy.
    for (j, exit) in exits.iter_mut().enumerate() {
        let entry = part_entries[j * nparts];
        let ready = &mut ready_all[j * nparts..(j + 1) * nparts];
        ready.fill(entry);
        let mut rx = entry;
        let mut trailing_ns = 0u64;
        let row = &mut arrivals[j * width..(j + 1) * width];
        row.sort_unstable_by_key(Arrival::key);
        for a in row.iter().take_while(|a| a.key() != Arrival::NONE.key()) {
            let (src, part) = ((a.src_part >> 32) as usize, a.src_part as u32 as usize);
            let (arr, drain) = (SimTime::from_ns(a.ns), a.drain);
            let done_ns = RECV_OVERHEAD_NS + (policy.extra_recv_ns)(src, bytes(src, j));
            rx = rx.max(arr) + SimTime::from_ns(drain);
            if policy.inline_recv {
                rx += SimTime::from_ns(done_ns);
            } else {
                trailing_ns += done_ns;
            }
            ready[part] = ready[part].max(rx);
        }
        *exit = (*exit).max(rx) + SimTime::from_ns(trailing_ns);
        if !policy.inline_recv {
            ready.fill(*exit);
        }
    }
    PartitionedTimes::from_flat(flat, nparts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgrid::MachineSpec;

    fn np(spec: &MachineSpec) -> NetParams<'_> {
        NetParams::exact(spec)
    }

    fn zeros(p: usize) -> Vec<SimTime> {
        vec![SimTime::ZERO; p]
    }

    #[test]
    fn pairwise_exit_monotone_in_bytes() {
        let spec = MachineSpec::summit();
        let group: Vec<usize> = (0..12).collect();
        let small = pairwise_times(
            &np(&spec),
            &PhaseEnv::quiet(true),
            &group,
            &zeros(12),
            &|_, _| 1 << 10,
            0,
        );
        let large = pairwise_times(
            &np(&spec),
            &PhaseEnv::quiet(true),
            &group,
            &zeros(12),
            &|_, _| 1 << 20,
            0,
        );
        for (s, l) in small.iter().zip(&large) {
            assert!(l > s);
        }
    }

    #[test]
    fn pairwise_symmetric_inputs_give_symmetric_exits() {
        let spec = MachineSpec::summit();
        // One full node: every pair intra-node, so all exits identical.
        let group: Vec<usize> = (0..6).collect();
        let exits = pairwise_times(
            &np(&spec),
            &PhaseEnv::quiet(true),
            &group,
            &zeros(6),
            &|_, _| 4096,
            0,
        );
        for e in &exits {
            assert_eq!(*e, exits[0]);
        }
    }

    #[test]
    fn bruck_beats_pairwise_for_tiny_messages() {
        let spec = MachineSpec::summit();
        let group: Vec<usize> = (0..48).collect();
        let env = PhaseEnv::machine_wide(&spec, 48, 47, true, 1);
        let per_pair = 64usize; // tiny: latency-dominated
        let pw = pairwise_times(&np(&spec), &env, &group, &zeros(48), &|_, _| per_pair, 0);
        let totals: Vec<usize> = vec![per_pair * 48; 48];
        let br = bruck_times(&np(&spec), &env, &group, &zeros(48), &totals);
        let pw_max = pw.iter().max().unwrap();
        let br_max = br.iter().max().unwrap();
        assert!(
            br_max < pw_max,
            "bruck {br_max:?} should beat pairwise {pw_max:?} for tiny messages"
        );
    }

    #[test]
    fn pairwise_beats_bruck_for_large_messages() {
        let spec = MachineSpec::summit();
        let group: Vec<usize> = (0..24).collect();
        let env = PhaseEnv::machine_wide(&spec, 24, 23, true, 1);
        let per_pair = 4 << 20; // 4 MiB: bandwidth-dominated
        let pw = pairwise_times(&np(&spec), &env, &group, &zeros(24), &|_, _| per_pair, 0);
        let totals: Vec<usize> = vec![per_pair * 24; 24];
        let br = bruck_times(&np(&spec), &env, &group, &zeros(24), &totals);
        assert!(pw.iter().max().unwrap() < br.iter().max().unwrap());
    }

    /// Plain (`nparts = 1`, trailing completion) scatter of `per_pair`
    /// bytes between every pair of `p` ranks.
    fn plain_scatter(p: usize, per_pair: usize, flavor: P2pFlavor, env: &PhaseEnv) -> Vec<SimTime> {
        let spec = MachineSpec::summit();
        let group: Vec<usize> = (0..p).collect();
        scatter_times(
            &np(&spec),
            env,
            &group,
            &zeros(p),
            &|_, _| per_pair,
            &ScatterPolicy {
                flavor,
                post_zero: false,
                inline_recv: false,
                extra_send_ns: &|_, _| 0,
                extra_recv_ns: &|_, _| 0,
            },
        )
        .exits()
        .to_vec()
    }

    #[test]
    fn scatter_blocking_and_nonblocking_are_close() {
        // Fig. 3/7: "not much difference when using blocking and
        // non-blocking approaches".
        let env = PhaseEnv::machine_wide(&MachineSpec::summit(), 24, 23, true, 2);
        let b = plain_scatter(24, 1 << 20, P2pFlavor::Blocking, &env);
        let nb = plain_scatter(24, 1 << 20, P2pFlavor::NonBlocking, &env);
        let bm = b.iter().max().unwrap().as_ns() as f64;
        let nbm = nb.iter().max().unwrap().as_ns() as f64;
        assert!(
            (bm / nbm - 1.0).abs() < 0.15,
            "blocking {bm} vs non-blocking {nbm} should be within 15%"
        );
    }

    #[test]
    fn scatter_skips_zero_byte_pairs() {
        let empty = plain_scatter(8, 0, P2pFlavor::NonBlocking, &PhaseEnv::quiet(true));
        assert!(empty.iter().all(|t| *t == SimTime::ZERO));
    }

    #[test]
    fn entries_shift_exits() {
        let spec = MachineSpec::summit();
        let group: Vec<usize> = (0..6).collect();
        let env = PhaseEnv::quiet(true);
        let base = pairwise_times(&np(&spec), &env, &group, &zeros(6), &|_, _| 1 << 16, 0);
        let shifted_entries: Vec<SimTime> = vec![SimTime::from_us(100); 6];
        let shifted = pairwise_times(
            &np(&spec),
            &env,
            &group,
            &shifted_entries,
            &|_, _| 1 << 16,
            0,
        );
        for (b, s) in base.iter().zip(&shifted) {
            assert_eq!(s.as_ns() - b.as_ns(), 100_000);
        }
    }

    #[test]
    fn partition_of_step_covers_all_parts_in_order() {
        // 8-rank group, 7 steps, 4 chunks: contiguous non-decreasing runs
        // that start at 0 and end at nparts-1.
        let parts: Vec<usize> = (1..8).map(|s| partition_of_step(s, 8, 4)).collect();
        assert_eq!(parts.first(), Some(&0));
        assert_eq!(parts.last(), Some(&3));
        assert!(parts.windows(2).all(|w| w[0] <= w[1] && w[1] - w[0] <= 1));
        // More chunks than peers: every step still gets a valid index.
        for s in 1..4 {
            assert!(partition_of_step(s, 4, 16) < 16);
        }
    }

    /// Flat per-partition entries: `p` members × `k` chunks, all at zero.
    fn part_zeros(p: usize, k: usize) -> Vec<SimTime> {
        zeros(p * k)
    }

    fn run_scatter(
        spec: &MachineSpec,
        p: usize,
        part_entries: &[SimTime],
        per_pair: usize,
        inline_recv: bool,
    ) -> PartitionedTimes {
        let group: Vec<usize> = (0..p).collect();
        let env = PhaseEnv::machine_wide(spec, p, p - 1, true, 1);
        scatter_times(
            &np(spec),
            &env,
            &group,
            part_entries,
            &|_, _| per_pair,
            &ScatterPolicy {
                flavor: P2pFlavor::NonBlocking,
                post_zero: true,
                inline_recv,
                extra_send_ns: &|_, _| 0,
                extra_recv_ns: &|_, _| 0,
            },
        )
    }

    fn run_part(spec: &MachineSpec, part_entries: &[SimTime], per_pair: usize) -> PartitionedTimes {
        run_scatter(spec, 8, part_entries, per_pair, true)
    }

    #[test]
    fn trailing_and_inline_completion_differ_only_in_the_receive_pass() {
        // Same single-chunk send pass; the trailing policy holds every
        // completion until the send loop is over, so its one chunk is
        // ready exactly at the exit, while inline completion stamps the
        // chunk as its last message is matched. Seven messages complete
        // either way, so the two exits differ by at most that CPU work.
        let spec = MachineSpec::summit();
        let trailing = run_scatter(&spec, 8, &zeros(8), 1 << 16, false);
        let inline = run_scatter(&spec, 8, &zeros(8), 1 << 16, true);
        for i in 0..8 {
            assert_eq!(trailing.ready(i), &[trailing.exit(i)]);
            assert!(inline.ready(i)[0] <= inline.exit(i));
            assert!(inline.exit(i) <= trailing.exit(i));
            assert!(trailing.exit(i).as_ns() - inline.exit(i).as_ns() <= 7 * RECV_OVERHEAD_NS);
        }
    }

    #[test]
    fn partitioned_exits_bound_every_chunk_ready() {
        let spec = MachineSpec::summit();
        let t = run_part(&spec, &part_zeros(8, 4), 1 << 18);
        for i in 0..8 {
            for r in t.ready(i) {
                assert!(*r <= t.exit(i), "chunk ready after exit on member {i}");
            }
        }
    }

    #[test]
    fn partitioned_exit_monotone_in_bytes() {
        let spec = MachineSpec::summit();
        let small = run_part(&spec, &part_zeros(8, 4), 1 << 12);
        let large = run_part(&spec, &part_zeros(8, 4), 1 << 20);
        for (s, l) in small.exits().iter().zip(large.exits()) {
            assert!(l > s);
        }
    }

    #[test]
    fn partitioned_entries_shift_everything() {
        let spec = MachineSpec::summit();
        let base = run_part(&spec, &part_zeros(8, 4), 1 << 16);
        let shifted = run_part(&spec, &vec![SimTime::from_us(100); 32], 1 << 16);
        for (b, s) in base.flat.iter().zip(&shifted.flat) {
            assert_eq!(s.as_ns() - b.as_ns(), 100_000);
        }
    }

    #[test]
    fn early_chunks_land_while_late_packs_are_still_running() {
        // The overlap win: delay everyone's *last* chunk entry by 1 ms.
        // Chunk-0 messages must still land at their original time, and the
        // exchange as a whole must finish earlier than if the whole
        // monolithic exchange had waited for the last pack.
        let spec = MachineSpec::summit();
        let k = 4;
        let base = run_part(&spec, &part_zeros(8, k), 1 << 18);
        let late = SimTime::from_ms(1);
        let mut pe = part_zeros(8, k);
        for row in pe.chunks_mut(k) {
            row[k - 1] = late;
        }
        let staggered = run_part(&spec, &pe, 1 << 18);
        for i in 0..8 {
            assert_eq!(
                staggered.ready(i)[0],
                base.ready(i)[0],
                "chunk 0 must not wait on chunk {}",
                k - 1
            );
        }
        // Monolithic equivalent: every message gated on the last pack.
        let all_late = run_part(&spec, &vec![late; 8 * k], 1 << 18);
        for (s, m) in staggered.exits().iter().zip(all_late.exits()) {
            assert!(
                s < m,
                "pipelined exit {s} should beat pack-barrier exit {m}"
            );
        }
    }

    /// Per-message reference pricing: every message priced from scratch
    /// through `message_time_ns`, with the jitter applied at every
    /// amplitude.
    fn msg_parts(
        np: &NetParams,
        env: &PhaseEnv,
        bytes: usize,
        src: usize,
        dst: usize,
    ) -> (u64, u64) {
        let ctx = env.transfer_ctx();
        let total = link::message_time_ns(np.spec, bytes, src, dst, &ctx);
        let lat = link::message_time_ns(np.spec, 0, src, dst, &ctx);
        let inject = total.saturating_sub(lat);
        let j = hash_jitter(np.seed, env.phase_id, src as u64, dst as u64, np.noise_amp);
        ((inject as f64 * j).round() as u64, lat)
    }

    /// The two-pass scatter walk: arrivals in one `Vec` per receiver, and
    /// the receive pass prices every message again for its drain.
    fn scatter_walk_reference(
        np: &NetParams,
        env: &PhaseEnv,
        group: &[usize],
        part_entries: &[SimTime],
        bytes: &dyn Fn(usize, usize) -> usize,
        policy: &ScatterPolicy,
        price: &mut impl FnMut(usize, usize, usize) -> (u64, u64),
    ) -> PartitionedTimes {
        let p = group.len();
        if p == 0 {
            return PartitionedTimes::from_flat(Vec::new(), 1);
        }
        let nparts = part_entries.len() / p;
        assert!(
            nparts >= 1 && part_entries.len() == p * nparts,
            "every member must supply one entry time per partition"
        );

        // Send pass: serialize each sender's injections, each message gated
        // on its own chunk's entry; record arrivals.
        let mut arrivals: Vec<Vec<(SimTime, u32, u32)>> = vec![Vec::new(); p]; // (arrival, src, part)
        let mut send_done = vec![SimTime::ZERO; p];
        for i in 0..p {
            let pe = &part_entries[i * nparts..(i + 1) * nparts];
            let mut t = pe[0] + SimTime::from_ns(selfcopy_ns(np, env, group[i], bytes(i, i)));
            let mut nic = t;
            for k in 1..p {
                let j = (i + k) % p;
                let part = match nparts {
                    1 => 0,
                    _ => partition_of_step(k, p, nparts),
                };
                t = t.max(pe[part]);
                let b = bytes(i, j);
                if b == 0 && !policy.post_zero {
                    continue;
                }
                let post = t + SimTime::from_ns(SEND_OVERHEAD_NS + (policy.extra_send_ns)(i, b));
                let (inject, lat) = price(b, group[i], group[j]);
                let start = post.max(nic);
                let end = start + SimTime::from_ns(inject);
                nic = end;
                arrivals[j].push((end + SimTime::from_ns(lat), i as u32, part as u32));
                t = match policy.flavor {
                    P2pFlavor::Blocking => end,
                    P2pFlavor::NonBlocking => post,
                };
            }
            send_done[i] = t.max(nic);
        }

        // Receive pass. The RX direction of the NIC drains arrivals in arrival
        // order, concurrently with the member's own injections (links are full
        // duplex); the CPU-side completion work (waitany matching, datatype
        // unpack) lands inline or in one trailing pass per the policy.
        let mut flat = vec![SimTime::ZERO; p * nparts + p];
        for j in 0..p {
            let entry = part_entries[j * nparts];
            let ready = &mut flat[j * nparts..(j + 1) * nparts];
            ready.fill(entry);
            let mut rx = entry;
            let mut trailing_ns = 0u64;
            arrivals[j].sort_unstable();
            for &(arr, src, part) in &arrivals[j] {
                let (src, part) = (src as usize, part as usize);
                let b = bytes(src, j);
                let (drain, _lat) = price(b, group[src], group[j]);
                let done_ns = RECV_OVERHEAD_NS + (policy.extra_recv_ns)(src, b);
                rx = rx.max(arr) + SimTime::from_ns(drain);
                if policy.inline_recv {
                    rx += SimTime::from_ns(done_ns);
                } else {
                    trailing_ns += done_ns;
                }
                ready[part] = ready[part].max(rx);
            }
            let exit = send_done[j].max(rx) + SimTime::from_ns(trailing_ns);
            if !policy.inline_recv {
                ready.fill(exit);
            }
            flat[p * nparts + j] = exit;
        }
        PartitionedTimes::from_flat(flat, nparts)
    }

    #[test]
    fn deduplicated_pricing_equals_per_message_reference() {
        let spec = MachineSpec::summit();
        // Up to five nodes' worth of world ranks (6 per node), not
        // contiguous, so intra- and inter-node pairs both occur.
        let ranks = [0usize, 2, 5, 6, 9, 13, 14, 17, 20, 23, 24, 26, 29];
        let sizes = [0usize, 4096, 4096, 12_288, 1 << 20];
        for p in [1usize, 2, 3, 8, 13] {
            let group = &ranks[..p];
            let entries: Vec<SimTime> = (0..3 * p)
                .map(|x| SimTime::from_ns(x as u64 * 37 % 500))
                .collect();
            let repeated = |i: usize, j: usize| sizes[(i * 7 + j * 4) % sizes.len()];
            let distinct = |i: usize, j: usize| (i * p + j) * 1000;
            let matrices: [&dyn Fn(usize, usize) -> usize; 3] = [&repeated, &distinct, &|_, _| 0];
            let totals: Vec<usize> = (0..p).map(|i| sizes[i % sizes.len()] * p).collect();
            for noise_amp in [0.0, 0.05] {
                let np = NetParams {
                    spec: &spec,
                    seed: 7,
                    noise_amp,
                };
                for gpu_aware in [true, false] {
                    let env = PhaseEnv::machine_wide(&spec, 30, p.max(2) - 1, gpu_aware, 11);
                    let mut reference =
                        |b, (src, _): Member, (dst, _): Member| msg_parts(&np, &env, b, src, dst);
                    let mut per_rank = |b, src, dst| msg_parts(&np, &env, b, src, dst);
                    let members = members(&spec, group);
                    let e = &entries[..p];
                    assert_eq!(
                        bruck_times(&np, &env, group, e, &totals),
                        bruck_walk(&np, &members, e, &totals, &mut reference),
                    );
                    for bytes in matrices {
                        assert_eq!(
                            pairwise_times(&np, &env, group, e, bytes, 50),
                            pairwise_walk(&np, &env, &members, e, bytes, 50, &mut reference),
                        );
                        for (nparts, flavor, post_zero) in [1, 3]
                            .into_iter()
                            .flat_map(|k| {
                                [P2pFlavor::Blocking, P2pFlavor::NonBlocking].map(|f| (k, f))
                            })
                            .flat_map(|(k, f)| [false, true].map(|z| (k, f, z)))
                        {
                            let policy = ScatterPolicy {
                                flavor,
                                post_zero,
                                inline_recv: nparts > 1,
                                extra_send_ns: &|i, b| (i + b % 97) as u64,
                                extra_recv_ns: &|i, b| (2 * i + b % 31) as u64,
                            };
                            let e = &entries[..p * nparts];
                            let walked = scatter_times(&np, &env, group, e, bytes, &policy);
                            assert_eq!(
                                walked,
                                scatter_walk(
                                    &np,
                                    &env,
                                    &members,
                                    e,
                                    bytes,
                                    &policy,
                                    &mut reference
                                ),
                            );
                            assert_eq!(
                                walked,
                                scatter_walk_reference(
                                    &np,
                                    &env,
                                    group,
                                    e,
                                    bytes,
                                    &policy,
                                    &mut per_rank
                                ),
                            );
                        }
                    }
                }
            }
        }
    }

    /// Messages that land at the same instant drain in sender order: every
    /// member sits on its own node and enters one send overhead after the
    /// previous one, so each receiver's lower-numbered senders all arrive
    /// together, in different partitions.
    #[test]
    fn tied_arrivals_drain_in_sender_order() {
        let spec = MachineSpec::summit();
        let np = NetParams::exact(&spec);
        for p in [1usize, 2, 3, 8, 13] {
            let group: Vec<usize> = (0..p).map(|i| i * spec.gpus_per_node).collect();
            let env = PhaseEnv::machine_wide(&spec, p * spec.gpus_per_node, p.max(2) - 1, true, 3);
            let mut reference = |b, src, dst| msg_parts(&np, &env, b, src, dst);
            for (nparts, inline_recv) in [(1, false), (1, true), (3, true), (4, true)] {
                let e: Vec<SimTime> = (0..p * nparts)
                    .map(|x| SimTime::from_ns((x / nparts) as u64 * SEND_OVERHEAD_NS))
                    .collect();
                let policy = ScatterPolicy {
                    flavor: P2pFlavor::NonBlocking,
                    post_zero: true,
                    inline_recv,
                    extra_send_ns: &|_, _| 0,
                    extra_recv_ns: &|i, _| i as u64,
                };
                let bytes = |_: usize, _: usize| 0;
                assert_eq!(
                    scatter_times(&np, &env, &group, &e, &bytes, &policy),
                    scatter_walk_reference(&np, &env, &group, &e, &bytes, &policy, &mut reference),
                    "p = {p}, nparts = {nparts}"
                );
            }
        }
    }

    #[test]
    fn jitter_changes_but_stays_deterministic() {
        let spec = MachineSpec::summit();
        let noisy = NetParams {
            spec: &spec,
            seed: 99,
            noise_amp: 0.05,
        };
        let group: Vec<usize> = (0..12).collect();
        let env = PhaseEnv::quiet(true);
        let a = pairwise_times(&noisy, &env, &group, &zeros(12), &|_, _| 1 << 20, 0);
        let b = pairwise_times(&noisy, &env, &group, &zeros(12), &|_, _| 1 << 20, 0);
        assert_eq!(a, b, "same seed must reproduce exactly");
        let exact = pairwise_times(
            &NetParams::exact(&spec),
            &env,
            &group,
            &zeros(12),
            &|_, _| 1 << 20,
            0,
        );
        assert_ne!(a, exact, "jitter should perturb the schedule");
    }
}
