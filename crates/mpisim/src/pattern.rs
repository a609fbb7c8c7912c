//! Pure schedule walkers — the single source of truth for communication
//! timing.
//!
//! Two walkers price every communication phase from the participating
//! world ranks, their entry times and the bytes they move:
//! [`alltoall_times`] walks the tuned `MPI_Alltoall`'s step-synchronized
//! rounds (Bruck or pairwise exchange), and [`scatter_times`] every posted
//! scatter of point-to-point messages (`MPI_Alltoallv`/`w`, heFFTe's
//! point-to-point loop, every partitioned exchange). Both are reached only
//! through [`crate::coll::exchange_times`], which the functional engine
//! calls to advance rank clocks and the analytic dry-run executor in
//! `distfft` calls with the same arguments — which is why both modes
//! report identical times.
//!
//! All pricing bottoms out in `simgrid::link`, with an optional
//! deterministic per-message jitter (`simgrid::noise::hash_jitter`). Within
//! one walk every message shares the phase's [`TransferCtx`], so its
//! transport cost depends only on (bytes, link path): a `Pricer` prices
//! each distinct pair once and applies the jitter per message (none at
//! zero amplitude). Each message is priced once per walk: its injection
//! time is also the drain its receiver charges, and its latency is carried
//! from the injecting pass to the arriving one.
//!
//! The scatter walk reads each member's byte row sparse, as its non-zero
//! `(member, bytes)` pairs, and orders its receives only where the order
//! decides the result. Completion charged in one trailing pass needs no
//! order: `rx = max(entry + D, max_d(d + D(≥ d)), latest_zero)` over the
//! draining messages `d`, so a zero-byte message takes no table slot and
//! the walk's memory is O(nnz + p). Completion charged inline sorts a row
//! of every posted message with a stable radix sort on arrival alone,
//! which reproduces the (arrival, sender) drain order exactly (see
//! [`scatter_times`]).

use simgrid::link::{self, LinkPath, TransferCtx};
use simgrid::noise::hash_jitter;
use simgrid::{MachineSpec, SimTime};

use crate::distro::AlltoallAlgo;

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

/// Prices a tuned **`MPI_Alltoall`** of one `block` per pair, self
/// included, with the algorithm the distribution selected for that block.
/// Both are step-synchronized send-receive rounds, partner `(me + hop) mod
/// p` at each round:
///
/// * [`AlltoallAlgo::Pairwise`] (the large-message algorithm in
///   MPICH/SpectrumMPI): the self copy, then `p-1` rounds at hop `r + 1`,
///   each moving one `block`;
/// * [`AlltoallAlgo::Bruck`] (the small-message algorithm): `⌈log₂ p⌉`
///   rounds at hop `2^r`, each moving half of a member's `p · block`
///   payload after a local reorder (a pack pass).
///
/// `group[i]` is the world rank of member `i`, `entries[i]` its entry
/// time. Returns exit times.
pub fn alltoall_times(
    np: &NetParams,
    env: &PhaseEnv,
    group: &[usize],
    entries: &[SimTime],
    block: usize,
    algo: AlltoallAlgo,
) -> Vec<SimTime> {
    let mut pricer = Pricer::new(np, env);
    let mut price = |b, src, dst| pricer.parts(b, src, dst);
    let members = members(np.spec, group);
    rounds_walk(np, env, &members, entries, block, algo, &mut price)
}

/// The rounds of [`alltoall_times`]. `price(bytes, src, dst)` is the
/// (injection, latency) of one message; each round prices each message
/// once.
#[expect(
    clippy::indexing_slicing,
    reason = "`entries` holds `p` entries (asserted) and peer indices are taken modulo `p`"
)]
fn rounds_walk(
    np: &NetParams,
    env: &PhaseEnv,
    members: &[Member],
    entries: &[SimTime],
    block: usize,
    algo: AlltoallAlgo,
    price: &mut impl FnMut(usize, Member, Member) -> (u64, u64),
) -> Vec<SimTime> {
    let p = members.len();
    assert_eq!(entries.len(), p);
    let (mut now, rounds, bytes, charge) = match algo {
        AlltoallAlgo::Pairwise => {
            let copy = |(&t, &(r, _)): (&SimTime, &Member)| {
                t + SimTime::from_ns(selfcopy_ns(np, env, r, block))
            };
            let now = entries.iter().zip(members).map(copy).collect();
            (now, p.saturating_sub(1), block, SEND_OVERHEAD_NS)
        }
        AlltoallAlgo::Bruck => {
            let bytes = block * p / 2;
            let pack = np.spec.kernel_model().pack_ns(bytes);
            let rounds = p.next_power_of_two().trailing_zeros() as usize; // ⌈log₂ p⌉
            (entries.to_vec(), rounds, bytes, SEND_OVERHEAD_NS + pack)
        }
    };
    // Per member: its NIC's free time (its injection end once a round's
    // injection pass ran) and the latency of the message it sent.
    let mut sent: Vec<(SimTime, u64)> = now.iter().map(|&t| (t, 0)).collect();
    for r in 0..rounds {
        let hop = match algo {
            AlltoallAlgo::Pairwise => r + 1,
            AlltoallAlgo::Bruck => 1 << r,
        };
        // Injection pass: everyone prices its send of this round.
        for (i, (nic, lat)) in sent.iter_mut().enumerate() {
            let (inject, l) = price(bytes, members[i], members[(i + hop) % p]);
            let start = (now[i] + SimTime::from_ns(charge)).max(*nic);
            *nic = start + SimTime::from_ns(inject);
            *lat = l;
        }
        // Completion pass: sendrecv finishes when both directions are done.
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

/// The first step of partition `part` (`≤ nparts`): partition `part`'s
/// steps are `first_step(part)..first_step(part + 1)`, empty when more
/// partitions than steps leave it none, and `first_step(nparts) = p`. The
/// inverse of [`partition_of_step`], whose `min` never binds.
fn first_step(part: usize, p: usize, nparts: usize) -> usize {
    1 + (part * (p - 1)).div_ceil(nparts)
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
/// `rows(i)` is member `i`'s non-zero row of the byte matrix: the
/// `(member, bytes)` pairs it sends, sorted by member, its own (the
/// self-copy) included; every pair it omits carries 0 bytes.
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
/// naive scatters see incast pressure instead of free parallelism. A
/// receiver drains its messages in (arrival, sender) order, `rx ←
/// max(rx, arr) + drain` each, starting at its entry. How much of that
/// order the walk computes depends on where completion is charged:
///
/// * **trailing** (`inline_recv: false`): only the final `rx` is used, and
///   the max-plus recurrence unrolls to
///   `rx = max(entry + D, max_a(arr_a + D(≥ arr_a)))`, where `D(≥ t)` is
///   the sum of the drains of the messages arriving at or after `t` and
///   `D` of all of them. No order appears in it: of messages tied at `t`,
///   the first to drain has the largest suffix, `D(≥ t)`, in any order.
///   A zero-byte message drains nothing, and its term never needs its
///   own `D(≥ arr)`: one arriving in `(d_{q−1}, d_q]` between two draining
///   arrivals has `arr + D(≥ arr) = arr + D(≥ d_q) ≤ d_q + D(≥ d_q)`, the
///   term of message `q`, and one arriving after the last drain has
///   `D(≥ arr) = 0`. So `rx = max(entry + D, max_d(d + D(≥ d)),
///   latest_zero)` over the draining messages `d` alone, and a posted
///   zero-byte message leaves only its arrival in its receiver's
///   `latest_zero` and its completion in the trailing sum.
/// * **inline** (`inline_recv: true`): every message stamps its chunk's
///   ready time, so the order matters, ties included, zero-byte messages
///   too (each completion occupies its receiver). The row is sorted by
///   arrival alone with a stable LSD radix sort. Rows are filled in sender
///   order, so a stable sort leaves tied arrivals in sender order: exactly
///   the (arrival, sender) order.
///
/// Time-shift invariant like every walker here.
pub fn scatter_times<'r>(
    np: &NetParams,
    env: &PhaseEnv,
    group: &[usize],
    part_entries: &[SimTime],
    rows: &dyn Fn(usize) -> &'r [(usize, usize)],
    policy: &ScatterPolicy,
) -> PartitionedTimes {
    let mut pricer = Pricer::new(np, env);
    let mut price = |b, src, dst| pricer.parts(b, src, dst);
    scatter_walk(np, env, group, part_entries, rows, policy, &mut price)
}

/// One posted message in its receiver's row of a scatter walk's arrival
/// table, carrying everything the receive pass needs: that pass reads no
/// byte column and asks for no cost.
#[derive(Clone, Copy, Default)]
struct Arrival {
    /// Arrival time, ns: the one sort key.
    ns: u64,
    /// How long the message keeps its receiver busy: its drain (the
    /// injection time), plus its completion when completion is inline.
    busy: u64,
    /// Its partition.
    part: usize,
}

/// A scatter walk's view of one member: who it is, where its row of the
/// arrival table starts and how many messages it holds so far, and what
/// the messages that take no slot leave it: the trailing completion work
/// and the latest zero-byte arrival.
struct Receiver {
    member: Member,
    start: usize,
    posted: usize,
    trailing_ns: u64,
    latest_zero: u64,
}

/// Digit widths of [`sort_by_arrival`], bits: 16 counters for a row of a
/// few messages, and at most 256, which a walk's stack holds and zeroes
/// cheaply; a longer row takes one more pass instead.
const RADIX_MIN_BITS: u32 = 4;
const RADIX_MAX_BITS: u32 = 8;

/// The send pass walks each sender's row in peer order, one partition at a
/// time, prices each message once and appends each one that takes a table
/// slot to its receiver's row, sized by a counting pass, in sender order,
/// with its injection time (its receive-side drain) and its completion
/// cost. The receive pass orders a row only where the order decides the
/// result: an inline row is sorted by arrival with [`sort_by_arrival`], a
/// trailing one is folded by [`trailing_rx`].
#[expect(
    clippy::indexing_slicing,
    reason = "`part_entries` holds `p * nparts` entries (asserted), partitions stay below `nparts`, row members below `p`, and the counting pass sizes each receiver's table row for the messages appended to it and the scratch for the longest"
)]
fn scatter_walk<'r>(
    np: &NetParams,
    env: &PhaseEnv,
    group: &[usize],
    part_entries: &[SimTime],
    rows: &dyn Fn(usize) -> &'r [(usize, usize)],
    policy: &ScatterPolicy,
    price: &mut impl FnMut(usize, Member, Member) -> (u64, u64),
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
    let mut receivers: Vec<Receiver> = group
        .iter()
        .map(|&r| Receiver {
            member: (r, np.spec.node_of(r)),
            start: 0,
            posted: 0,
            trailing_ns: 0,
            latest_zero: 0,
        })
        .collect();
    // Counting pass: the slots each receiver's row needs. Receiver `j`'s
    // row starts at `table[start]`; the longest row's worth of slots past
    // the rows is the inline sort's scratch.
    let every_pair = policy.post_zero && policy.inline_recv;
    if !every_pair {
        for i in 0..p {
            for &(j, _) in rows(i).iter().filter(|&&(j, _)| j != i) {
                receivers[j].posted += 1;
            }
        }
    }
    let (mut slots, mut longest) = (0, 0);
    for to in &mut receivers {
        let n = if every_pair { p - 1 } else { to.posted };
        (to.start, to.posted) = (slots, 0);
        slots += n;
        longest = longest.max(n);
    }
    let scratch = if policy.inline_recv { longest } else { 0 };
    let mut table = vec![Arrival::default(); slots + scratch];
    // `p · nparts` ready times, then the exits; the exit slots hold each
    // member's send completion until the receive pass.
    let mut flat = vec![SimTime::ZERO; p * nparts + p];
    let (ready_all, exits) = flat.split_at_mut(p * nparts);
    // A zero-byte message injects nothing at any noise amplitude, so its
    // price is a latency per link class (self, intra-node, inter-node).
    let mut zero_lat: [Option<u64>; 3] = [None; 3];

    // Send pass: serialize each sender's injections, each message gated
    // on its own chunk's entry; append arrivals to the receivers' rows.
    for (i, send_done) in exits.iter_mut().enumerate() {
        let pe = &part_entries[i * nparts..(i + 1) * nparts];
        let me = receivers[i].member;
        // The row in peer order: the members above `me`, then those below.
        let row = rows(i);
        let above = row.partition_point(|&(j, _)| j <= i);
        let (below, above) = row.split_at(above);
        let (below, self_bytes) = match below.split_last() {
            Some((&(j, b), rest)) if j == i => (rest, b),
            _ => (below, 0),
        };
        let step_of = |j: usize| if j > i { j - i } else { j + p - i };
        let mut peers = above.iter().chain(below).map(|&(j, b)| (step_of(j), j, b));
        let mut next = peers.next();
        let mut t = pe[0] + SimTime::from_ns(selfcopy_ns(np, env, me.0, self_bytes));
        let mut nic = t;
        // Extra costs depend on (sender, bytes): a zero-byte message's
        // posting and completion are the sender's constants, and the last
        // other size's extras are kept.
        let zero_post = policy.post_zero.then(|| {
            let (send, recv) = ((policy.extra_send_ns)(i, 0), (policy.extra_recv_ns)(i, 0));
            (
                SimTime::from_ns(SEND_OVERHEAD_NS + send),
                RECV_OVERHEAD_NS + recv,
            )
        });
        let mut last_extra = (0, (0, 0));
        for (part, &gate) in pe.iter().enumerate() {
            let steps = first_step(part, p, nparts)..first_step(part + 1, p, nparts);
            if steps.is_empty() {
                continue;
            }
            t = t.max(gate);
            let mut k = steps.start;
            loop {
                let message = next.filter(|&(step, ..)| step < steps.end);
                // A tight sweep over the zero-byte messages posted before
                // it: no injection, so no drain and, in a trailing walk, no
                // table slot (see `scatter_times`).
                if let Some((send, done)) = zero_post {
                    for step in k..message.map_or(steps.end, |(step, ..)| step) {
                        let to = &mut receivers[if i + step < p { i + step } else { i + step - p }];
                        let class =
                            usize::from(me.0 != to.member.0) + usize::from(me.1 != to.member.1);
                        let lat = *zero_lat[class].get_or_insert_with(|| price(0, me, to.member).1);
                        let post = t + send;
                        nic = nic.max(post);
                        let arrival = (nic + SimTime::from_ns(lat)).as_ns();
                        if policy.inline_recv {
                            table[to.start + to.posted] = Arrival {
                                ns: arrival,
                                busy: done,
                                part,
                            };
                            to.posted += 1;
                        } else {
                            to.latest_zero = to.latest_zero.max(arrival);
                            to.trailing_ns += done;
                        }
                        t = match policy.flavor {
                            P2pFlavor::Blocking => nic,
                            P2pFlavor::NonBlocking => post,
                        };
                    }
                }
                let Some((step, j, b)) = message else {
                    break;
                };
                (k, next) = (step + 1, peers.next());
                let to = &mut receivers[j];
                let (inject, lat) = price(b, me, to.member);
                if last_extra.0 != b {
                    let extra = ((policy.extra_send_ns)(i, b), (policy.extra_recv_ns)(i, b));
                    last_extra = (b, extra);
                }
                let (extra_send, extra_recv) = last_extra.1;
                let post = t + SimTime::from_ns(SEND_OVERHEAD_NS + extra_send);
                let start = post.max(nic);
                let end = start + SimTime::from_ns(inject);
                nic = end;
                let done = RECV_OVERHEAD_NS + extra_recv;
                let busy = if policy.inline_recv {
                    inject + done
                } else {
                    to.trailing_ns += done;
                    inject
                };
                table[to.start + to.posted] = Arrival {
                    ns: (end + SimTime::from_ns(lat)).as_ns(),
                    busy,
                    part,
                };
                to.posted += 1;
                t = match policy.flavor {
                    P2pFlavor::Blocking => end,
                    P2pFlavor::NonBlocking => post,
                };
            }
        }
        *send_done = t.max(nic);
    }

    // Receive pass. The RX direction of the NIC drains arrivals in arrival
    // order, concurrently with the member's own injections (links are full
    // duplex); the CPU-side completion work (waitany matching, datatype
    // unpack) lands inline or in one trailing pass per the policy.
    let (table, scratch) = table.split_at_mut(slots);
    let mut counts = [0usize; 1 << RADIX_MAX_BITS];
    for (j, (to, exit)) in receivers.iter().zip(exits).enumerate() {
        let entry = part_entries[j * nparts];
        let ready = &mut ready_all[j * nparts..(j + 1) * nparts];
        let row = &mut table[to.start..to.start + to.posted];
        if policy.inline_recv {
            ready.fill(entry);
            let mut rx = entry.as_ns();
            for a in sort_by_arrival(row, scratch, &mut counts) {
                rx = rx.max(a.ns) + a.busy;
                // `rx` never falls, so the chunk's last message stamps it.
                ready[a.part] = SimTime::from_ns(rx);
            }
            *exit = (*exit).max(SimTime::from_ns(rx));
        } else {
            let rx = trailing_rx(entry.as_ns(), row).max(to.latest_zero);
            *exit = (*exit).max(SimTime::from_ns(rx)) + SimTime::from_ns(to.trailing_ns);
            ready.fill(*exit);
        }
    }
    PartitionedTimes::from_flat(flat, nparts)
}

/// The RX clock after a trailing row of non-zero messages drains from
/// `entry`: `max(entry + D, max_d(d + D(≥ d)))` of [`scatter_times`], by
/// one fold from the end of the row sorted by arrival. The caller takes
/// the max with the row's latest zero-byte arrival.
fn trailing_rx(entry: u64, row: &mut [Arrival]) -> u64 {
    row.sort_unstable_by_key(|a| a.ns);
    let (mut after, mut rx) = (0, 0);
    for a in row.iter().rev() {
        after += a.busy;
        rx = rx.max(a.ns + after);
    }
    rx.max(entry + after)
}

/// `(digit width, pass count)` of [`sort_by_arrival`] on `n` arrivals
/// spanning `span` ns: a digit of about `log₂ n` bits, so the histogram
/// costs no more than a pass over the row, and as many passes as the
/// span has digits.
fn radix_digits(n: usize, span: u64) -> (u32, u32) {
    let bits = (usize::BITS - n.leading_zeros()).clamp(RADIX_MIN_BITS, RADIX_MAX_BITS);
    (bits, (u64::BITS - span.leading_zeros()).div_ceil(bits))
}

/// Sorts `row` by arrival alone with a stable LSD radix sort on each
/// arrival's offset from the row's earliest, and returns the sorted
/// records, which end in `row` or in `scratch` (at least as long) after
/// an odd number of moving passes. Rows are filled in sender order, so
/// stability is exactly the `(arrival, sender)` order. The digit width
/// grows with the row's length and the pass count with its arrival span;
/// a pass whose digits are all equal moves nothing and is skipped.
/// `counts` is the digit histogram's storage.
#[expect(
    clippy::indexing_slicing,
    reason = "digits are masked below `1 << bits <= counts.len()`, their prefix sums stay below `row.len() <= scratch.len()`, and `src` is non-empty whenever its span needs a pass"
)]
fn sort_by_arrival<'a>(
    row: &'a mut [Arrival],
    scratch: &'a mut [Arrival],
    counts: &mut [usize; 1 << RADIX_MAX_BITS],
) -> &'a [Arrival] {
    let n = row.len();
    let (lo, hi) = row
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), a| (lo.min(a.ns), hi.max(a.ns)));
    let span = hi.saturating_sub(lo);
    let (bits, passes) = radix_digits(n, span);
    let counts = &mut counts[..1 << bits];
    let (mut src, mut dst) = (row, &mut scratch[..n]);
    for pass in 0..passes {
        let shift = pass * bits;
        let digit = |a: &Arrival| ((a.ns - lo) >> shift) as usize & ((1 << bits) - 1);
        counts.fill(0);
        for a in src.iter() {
            counts[digit(a)] += 1;
        }
        if counts[digit(&src[0])] == n {
            continue;
        }
        let mut at = 0;
        for c in counts.iter_mut() {
            (at, *c) = (at + *c, at);
        }
        for a in src.iter() {
            let c = &mut counts[digit(a)];
            dst[*c] = *a;
            *c += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
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

    /// The non-zero rows of the `p × p` byte matrix `bytes`.
    fn sparse(p: usize, bytes: &dyn Fn(usize, usize) -> usize) -> Vec<Vec<(usize, usize)>> {
        let row = |i| {
            (0..p)
                .map(|j| (j, bytes(i, j)))
                .filter(|&(_, b)| b > 0)
                .collect()
        };
        (0..p).map(row).collect()
    }

    /// [`scatter_times`] on the dense byte matrix `bytes`.
    fn scatter_dense(
        np: &NetParams,
        env: &PhaseEnv,
        group: &[usize],
        part_entries: &[SimTime],
        bytes: &dyn Fn(usize, usize) -> usize,
        policy: &ScatterPolicy,
    ) -> PartitionedTimes {
        let rows = sparse(group.len(), bytes);
        scatter_times(np, env, group, part_entries, &|i| &rows[i], policy)
    }

    fn pairwise(np: &NetParams, env: &PhaseEnv, entries: &[SimTime], block: usize) -> Vec<SimTime> {
        let group: Vec<usize> = (0..entries.len()).collect();
        alltoall_times(np, env, &group, entries, block, AlltoallAlgo::Pairwise)
    }

    #[test]
    fn pairwise_exit_monotone_in_bytes() {
        let spec = MachineSpec::summit();
        let env = PhaseEnv::quiet(true);
        let small = pairwise(&np(&spec), &env, &zeros(12), 1 << 10);
        let large = pairwise(&np(&spec), &env, &zeros(12), 1 << 20);
        for (s, l) in small.iter().zip(&large) {
            assert!(l > s);
        }
    }

    #[test]
    fn pairwise_symmetric_inputs_give_symmetric_exits() {
        let spec = MachineSpec::summit();
        // One full node: every pair intra-node, so all exits identical.
        let exits = pairwise(&np(&spec), &PhaseEnv::quiet(true), &zeros(6), 4096);
        for e in &exits {
            assert_eq!(*e, exits[0]);
        }
    }

    /// The slowest exit of each algorithm on `p` ranks exchanging `block`.
    fn slowest(p: usize, block: usize) -> [SimTime; 2] {
        let spec = MachineSpec::summit();
        let group: Vec<usize> = (0..p).collect();
        let env = PhaseEnv::machine_wide(&spec, p, p - 1, true, 1);
        [AlltoallAlgo::Bruck, AlltoallAlgo::Pairwise].map(|algo| {
            let exits = alltoall_times(&np(&spec), &env, &group, &zeros(p), block, algo);
            exits.into_iter().max().unwrap()
        })
    }

    #[test]
    fn bruck_beats_pairwise_for_tiny_messages() {
        // 64 B per pair: latency-dominated.
        let [br, pw] = slowest(48, 64);
        assert!(
            br < pw,
            "bruck {br:?} should beat pairwise {pw:?} for tiny messages"
        );
    }

    #[test]
    fn pairwise_beats_bruck_for_large_messages() {
        // 4 MiB per pair: bandwidth-dominated.
        let [br, pw] = slowest(24, 4 << 20);
        assert!(pw < br);
    }

    /// Plain (`nparts = 1`, trailing completion) scatter of `per_pair`
    /// bytes between every pair of `p` ranks.
    fn plain_scatter(p: usize, per_pair: usize, flavor: P2pFlavor, env: &PhaseEnv) -> Vec<SimTime> {
        let spec = MachineSpec::summit();
        let group: Vec<usize> = (0..p).collect();
        scatter_dense(
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
        let env = PhaseEnv::quiet(true);
        let base = pairwise(&np(&spec), &env, &zeros(6), 1 << 16);
        let shifted = pairwise(&np(&spec), &env, &[SimTime::from_us(100); 6], 1 << 16);
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
        scatter_dense(
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
                    for (block, algo) in sizes
                        .into_iter()
                        .flat_map(|b| [AlltoallAlgo::Bruck, AlltoallAlgo::Pairwise].map(|a| (b, a)))
                    {
                        assert_eq!(
                            alltoall_times(&np, &env, group, e, block, algo),
                            rounds_walk(&np, &env, &members, e, block, algo, &mut reference),
                        );
                    }
                    for bytes in matrices {
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
                            let walked = scatter_dense(&np, &env, group, e, bytes, &policy);
                            let rows = sparse(p, bytes);
                            let rows = |i: usize| rows[i].as_slice();
                            assert_eq!(
                                walked,
                                scatter_walk(&np, &env, group, e, &rows, &policy, &mut reference),
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

    /// SplitMix64, for the seeded random walks.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A seeded random `p × p` byte matrix of one shape: a density from
    /// empty to full, rows of 0–2 non-zeros, random rows and columns
    /// emptied (member 0's column always: a receiver with no draining
    /// message), or each member but 0 sending 1 MiB to its successor, so
    /// the zero-byte posts queued behind that injection reach member 0,
    /// which drains nothing, after every other arrival it sees.
    fn random_matrix(rng: &mut Rng, p: usize, shape: &str) -> Vec<Vec<usize>> {
        let sizes = [64usize, 4096, 12_288, 1 << 20];
        let mut m = vec![vec![0; p]; p];
        let mut fill = |rng: &mut Rng, percent: u64| {
            for b in m.iter_mut().flatten() {
                if rng.below(100) < percent {
                    *b = sizes[rng.below(4) as usize];
                }
            }
        };
        match shape {
            "0-2 per row" => {
                for row in m.iter_mut() {
                    for _ in 0..rng.below(3) {
                        row[rng.below(p as u64) as usize] = sizes[rng.below(4) as usize];
                    }
                }
            }
            "empty rows and columns" => {
                fill(rng, 50);
                for i in 0..p {
                    if i == 0 || rng.below(4) == 0 {
                        m.iter_mut().for_each(|row| row[i] = 0);
                    }
                    if rng.below(4) == 0 {
                        m[i].fill(0);
                    }
                }
            }
            "zeros behind 1 MiB" => {
                for (i, row) in m.iter_mut().enumerate().skip(1) {
                    if i + 1 < p {
                        row[i + 1] = 1 << 20;
                    }
                }
            }
            percent => fill(rng, percent.trim_end_matches(" %").parse().unwrap()),
        }
        m
    }

    /// The walk against the two-pass reference on seeded random byte
    /// matrices of every [`random_matrix`] shape, over every policy: tied
    /// and random entries, exact and noisy pricing. Extra costs vary by
    /// sender, so a drain order that breaks a tie differently shows in the
    /// stamps.
    #[test]
    fn walk_equals_reference_on_random_matrices() {
        let spec = MachineSpec::summit();
        let mut rng = Rng(0x05CA_77E2);
        let shapes = [
            "0 %",
            "3 %",
            "50 %",
            "100 %",
            "0-2 per row",
            "empty rows and columns",
            "zeros behind 1 MiB",
        ];
        for p in [1usize, 2, 3, 8, 13, 64] {
            // Six GPUs per node, with gaps: intra- and inter-node pairs.
            let group: Vec<usize> = (0..p).map(|i| i * 5 / 3).collect();
            let env = PhaseEnv::machine_wide(&spec, 120, p.max(2) - 1, true, 5);
            for shape in shapes {
                let matrix = random_matrix(&mut rng, p, shape);
                let bytes = |i: usize, j: usize| matrix[i][j];
                for noise_amp in [0.0, 0.05] {
                    let np = NetParams {
                        spec: &spec,
                        seed: 7,
                        noise_amp,
                    };
                    let mut reference = |b, src, dst| msg_parts(&np, &env, b, src, dst);
                    for (nparts, tied) in [1, 2, 3, 4, 7]
                        .into_iter()
                        .flat_map(|k| [true, false].map(|t| (k, t)))
                    {
                        let e: Vec<SimTime> = (0..p * nparts)
                            .map(|_| SimTime::from_ns(if tied { 1000 } else { rng.below(50_000) }))
                            .collect();
                        for flavor in [P2pFlavor::Blocking, P2pFlavor::NonBlocking] {
                            for (post_zero, inline_recv) in
                                [(false, false), (false, true), (true, false), (true, true)]
                            {
                                let policy = ScatterPolicy {
                                    flavor,
                                    post_zero,
                                    inline_recv,
                                    extra_send_ns: &|i, b| (i + b % 97) as u64,
                                    extra_recv_ns: &|i, b| (3 * i + b % 31) as u64,
                                };
                                assert_eq!(
                                    scatter_dense(&np, &env, &group, &e, &bytes, &policy),
                                    scatter_walk_reference(
                                        &np,
                                        &env,
                                        &group,
                                        &e,
                                        &bytes,
                                        &policy,
                                        &mut reference
                                    ),
                                    "p = {p}, {shape}, noise {noise_amp}, \
                                     {nparts} parts, tied {tied}, {flavor:?}, \
                                     post_zero {post_zero}, inline {inline_recv}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The radix sort against the standard library's stable sort, on rows
    /// of every shape: empty, single, all equal, spans of one pass and of
    /// five or more, with and without ties.
    #[test]
    fn radix_sort_is_the_stable_sort_by_arrival() {
        let mut rng = Rng(0xA11);
        let mut counts = [0; 1 << RADIX_MAX_BITS];
        for n in [0usize, 1, 2, 3, 191] {
            for name in ["equal", "one pass", "wide", "wide ties"] {
                // Wide spans hold their two extremes, so they need every pass.
                let draw = |r: &mut Rng, k: u64| match name {
                    "equal" => 0,
                    "one pass" => r.below(16),
                    "wide" => [0, 1 << 45]
                        .get(k as usize)
                        .copied()
                        .unwrap_or(r.below(1 << 45)),
                    _ => ((k + 3) % 4) << 43 | r.below(2),
                };
                let row: Vec<Arrival> = (0..n)
                    .map(|k| Arrival {
                        ns: 1_000_000 + draw(&mut rng, k as u64),
                        busy: k as u64,
                        part: k,
                    })
                    .collect();
                let (lo, hi) = (
                    row.iter().map(|a| a.ns).min(),
                    row.iter().map(|a| a.ns).max(),
                );
                let span = hi.zip(lo).map_or(0, |(hi, lo)| hi - lo);
                let passes = radix_digits(n, span).1;
                match name {
                    "equal" => assert_eq!(passes, 0),
                    "one pass" => assert!(passes <= 1),
                    _ => assert!(n < 2 || passes >= 5, "{name}: {passes} passes"),
                }
                let mut expect = row.clone();
                expect.sort_by_key(|a| a.ns);
                let (mut work, mut scratch) = (row.clone(), vec![Arrival::default(); n]);
                let sorted = sort_by_arrival(&mut work, &mut scratch, &mut counts);
                let key = |a: &Arrival| (a.ns, a.busy, a.part);
                assert_eq!(
                    sorted.iter().map(key).collect::<Vec<_>>(),
                    expect.iter().map(key).collect::<Vec<_>>(),
                    "n = {n}, {name}"
                );
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
                    scatter_dense(&np, &env, &group, &e, &bytes, &policy),
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
        let env = PhaseEnv::quiet(true);
        let a = pairwise(&noisy, &env, &zeros(12), 1 << 20);
        let b = pairwise(&noisy, &env, &zeros(12), 1 << 20);
        assert_eq!(a, b, "same seed must reproduce exactly");
        let exact = pairwise(&NetParams::exact(&spec), &env, &zeros(12), 1 << 20);
        assert_ne!(a, exact, "jitter should perturb the schedule");
    }
}
