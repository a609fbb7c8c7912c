//! Collectives: the one reshape [`exchange`] behind `MPI_Alltoall(v|w)` and
//! the heFFTe-style point-to-point backend (an [`ExchangeKind`] policy row
//! each).
//!
//! Data moves through the zero-cost control plane; clock advances come from
//! [`exchange_times`] over the schedule walkers in [`crate::pattern`] — the
//! same function the analytic dry-run calls, once per collective in both
//! modes, so functional and analytic timings agree exactly.
//!
//! Every collective takes an explicit [`PhaseEnv`] describing how the
//! machine is loaded while the phase runs (NIC sharing, active nodes); the
//! distributed-FFT layer derives it from its reshape plan.

use std::sync::Arc;

use simgrid::SimTime;

use crate::comm::{Comm, Rank};
use crate::distro::MpiDistro;
use crate::pattern::{self, NetParams, P2pFlavor, PartitionedTimes, PhaseEnv, ScatterPolicy};

fn net_params<'a>(rank: &Rank<'a>) -> NetParams<'a> {
    let w = rank.world();
    NetParams {
        spec: w.spec(),
        seed: w.opts().seed,
        noise_amp: w.opts().noise_amplitude,
    }
}

/// Per-call setup cost of a tuned collective: algorithm dispatch plus an
/// O(p) scan of the count arrays / internal request allocation.
pub fn coll_setup_ns(p: usize) -> u64 {
    1_000 + 100 * p as u64
}

/// Per-message CPU cost a backend adds on top of the bare scatter.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MsgCost {
    None,
    /// Derived-datatype assembly on both sides of every message: fixed
    /// setup (ns) plus the payload at a pack bandwidth (GB/s).
    Datatype {
        setup_ns: u64,
        pack_gbs: f64,
    },
    /// GPU-aware per-peer registration on the send side (Fig. 9), growing
    /// with the sender's count of non-empty peers.
    GpuRegistration,
}

/// The pricing policy of one reshape exchange — the paper's Table I as
/// data. One constructor per backend row; [`exchange_times`] is the only
/// interpreter.
///
/// | constructor | schedule | setup | empty pairs | per-message extra | GPU-aware |
/// |---|---|---|---|---|---|
/// | [`alltoall`](Self::alltoall) | distro's Bruck/pairwise; posted scatter once partitioned | dispatch + call sync | posted | — | as asked |
/// | [`alltoallv`](Self::alltoallv) | posted scatter | dispatch + call sync | posted | — | as asked |
/// | [`alltoallw`](Self::alltoallw) | posted scatter | dispatch + call sync | posted | datatype assembly, both sides | only if the distro's is |
/// | [`p2p`](Self::p2p) | posted scatter, blocking or not | call sync | skipped | GPU registration, send side | as asked |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeKind {
    /// An MPI collective (tuned-dispatch setup, every pair posted, even
    /// empty ones) rather than heFFTe's hand-written loop (call sync only,
    /// empty pairs skipped).
    collective: bool,
    flavor: P2pFlavor,
    msg_cost: MsgCost,
    /// Padded `MPI_Alltoall`: every pair carries one block, and the
    /// monolithic call takes this distro's size-selected algorithm.
    tuned: Option<MpiDistro>,
    /// Whether the routine honours GPU buffers at all.
    gpu_aware: bool,
    partitioned: bool,
}

impl ExchangeKind {
    /// Padded `MPI_Alltoall` on equal blocks, with the tuned algorithm
    /// selected by the distribution profile (§II: "MPICH has four
    /// different implementations of MPI_Alltoall, selected according to
    /// the array size"): Bruck for small blocks, pairwise exchange for
    /// large, both walked as send-receive rounds by
    /// [`pattern::alltoall_times`] on the one block of member 0's row. A
    /// partitioned exchange must keep per-peer messages intact so a
    /// receiver can match chunk `k`'s blocks as they land, which rules out
    /// Bruck's log-round payload mixing and the pairwise schedule's
    /// step-synchronized rounds: chunking forces the posted scatter.
    pub fn alltoall(distro: MpiDistro) -> ExchangeKind {
        ExchangeKind {
            tuned: Some(distro),
            ..ExchangeKind::alltoallv()
        }
    }

    /// `MPI_Alltoallv`: the basic-linear algorithm (post every pair
    /// non-blocking, wait all) that SpectrumMPI and MVAPICH use for the
    /// irregular collective — zero-count pairs are still posted.
    pub fn alltoallv() -> ExchangeKind {
        ExchangeKind {
            collective: true,
            flavor: P2pFlavor::NonBlocking,
            msg_cost: MsgCost::None,
            tuned: None,
            gpu_aware: true,
            partitioned: false,
        }
    }

    /// `MPI_Alltoallw` with derived datatypes: the naive `Isend`/`Irecv`
    /// scatter every real distribution uses for it, per-message datatype
    /// assembly costs, and the SpectrumMPI GPU-awareness loss (§II
    /// footnote).
    pub fn alltoallw(distro: MpiDistro) -> ExchangeKind {
        let (setup_ns, pack_gbs) = distro.alltoallw_dtype_cost();
        ExchangeKind {
            msg_cost: MsgCost::Datatype { setup_ns, pack_gbs },
            gpu_aware: distro.alltoallw_gpu_aware(),
            ..ExchangeKind::alltoallv()
        }
    }

    /// The heFFTe point-to-point exchange (`MPI_Send`/`MPI_Isend` +
    /// `MPI_Irecv`/`MPI_Waitany`, paper Table I, Fig. 7): zero-length
    /// payloads are skipped, and GPU-aware sends pay the per-peer
    /// registration overhead.
    pub fn p2p(flavor: P2pFlavor) -> ExchangeKind {
        ExchangeKind {
            collective: false,
            flavor,
            msg_cost: MsgCost::GpuRegistration,
            ..ExchangeKind::alltoallv()
        }
    }

    /// Selects the partitioned variant: sends become eligible chunk by
    /// chunk and receives complete per chunk (inline, `MPI_Waitany`-style)
    /// instead of in one trailing pass. Padded `MPI_Alltoall` additionally
    /// leaves its tuned algorithm for the posted scatter.
    pub fn partitioned(self, partitioned: bool) -> ExchangeKind {
        ExchangeKind {
            partitioned,
            ..self
        }
    }
}

/// Prices one reshape exchange: exit and per-chunk ready times of every
/// member of `group`, given the member-major per-partition entry times
/// (`part_entries.len() / group.len()` chunks each; one for a monolithic
/// call) and each member's non-zero byte row: `rows(i)` holds the
/// `(member, bytes)` pairs member `i` sends (group indices), sorted by
/// member, its own included; every pair it omits carries 0 bytes. A
/// padded `MPI_Alltoall` reads its one block from member 0's row.
///
/// This is the single pricer behind both execution modes, called once per
/// collective in each: the functional [`exchange`] with the entries and
/// byte rows the members deposited, the analytic dry-run with the ones it
/// computed — the mechanism that keeps the two in exact agreement.
#[expect(
    clippy::indexing_slicing,
    reason = "`pe` is a chunk of `nparts >= 1` entries"
)]
pub fn exchange_times<'r, R: Fn(usize) -> &'r [(usize, usize)]>(
    np: &NetParams,
    env: &PhaseEnv,
    kind: &ExchangeKind,
    group: &[usize],
    part_entries: &[SimTime],
    rows: &R,
) -> PartitionedTimes {
    let p = group.len();
    let nparts = part_entries.len() / p.max(1);
    assert!(
        nparts >= 1 && (kind.partitioned || nparts == 1),
        "a monolithic exchange has exactly one entry per member"
    );
    let env = PhaseEnv {
        gpu_aware: env.gpu_aware && kind.gpu_aware,
        ..*env
    };
    // One-time call entry costs: device sync (stream sync, handle lookup —
    // amortized by batching, Fig. 13) plus, for a collective, the tuned
    // dispatch. Setup happens once when the call is posted (a member's
    // first entry) and no partition may inject before it completes.
    let setup = SimTime::from_ns(
        np.spec.gpu_call_sync_ns + if kind.collective { coll_setup_ns(p) } else { 0 },
    );
    let entries: Vec<SimTime> = part_entries
        .chunks(nparts)
        .flat_map(|pe| pe.iter().map(|t| (*t).max(pe[0] + setup)))
        .collect();
    if let (Some(distro), false) = (kind.tuned, kind.partitioned) {
        let block = match p {
            0 => 0,
            _ => rows(0).first().map_or(0, |&(_, b)| b),
        };
        let algo = distro.alltoall_algo(block);
        let exits = pattern::alltoall_times(np, &env, group, &entries, block, algo);
        return PartitionedTimes::from_exits(exits);
    }
    // A GPU-aware send registers once per peer the sender has: its row's
    // length, less its self entry.
    let peers = |i: usize| {
        let row = rows(i);
        row.len() - usize::from(row.binary_search_by_key(&i, |&(j, _)| j).is_ok())
    };
    let msg_ns = |sender: usize, bytes: usize, sending: bool| match kind.msg_cost {
        MsgCost::Datatype { setup_ns, pack_gbs } => {
            setup_ns + (bytes as f64 / pack_gbs).ceil() as u64
        }
        MsgCost::GpuRegistration if sending && env.gpu_aware => {
            np.spec.p2p_gpu_aware_overhead_ns(peers(sender).max(1))
        }
        _ => 0,
    };
    let policy = ScatterPolicy {
        flavor: kind.flavor,
        post_zero: kind.collective,
        inline_recv: kind.partitioned,
        extra_send_ns: &|i, b| msg_ns(i, b, true),
        extra_recv_ns: &|i, b| msg_ns(i, b, false),
    };
    pattern::scatter_times(np, &env, group, &entries, rows, &policy)
}

/// The delegates' rows of `p` members all sending every member `bytes`.
fn uniform_row(p: usize, bytes: usize) -> Vec<(usize, usize)> {
    (0..p).filter(|_| bytes > 0).map(|j| (j, bytes)).collect()
}

/// [`exchange_times`] on the non-zero rows of the delegates' dense matrix.
fn matrix_times(
    np: &NetParams,
    env: &PhaseEnv,
    kind: &ExchangeKind,
    group: &[usize],
    part_entries: &[SimTime],
    matrix: &[Vec<usize>],
) -> PartitionedTimes {
    let non_zero = |row: &Vec<usize>| {
        row.iter()
            .copied()
            .enumerate()
            .filter(|&(_, b)| b > 0)
            .collect()
    };
    let rows: Vec<Vec<_>> = matrix.iter().map(non_zero).collect();
    let row = |i| rows.get(i).map_or(&[][..], Vec::as_slice);
    exchange_times(np, env, kind, group, part_entries, &row)
}

fn flat_entries(part_entries: &[Vec<SimTime>], nparts: usize) -> Vec<SimTime> {
    assert!(
        part_entries.iter().all(|pe| pe.len() == nparts),
        "every member must supply one entry time per partition"
    );
    part_entries.iter().flatten().copied().collect()
}

/// Exit times of a monolithic padded `MPI_Alltoall` — a delegate to
/// [`exchange_times`] with [`ExchangeKind::alltoall`].
pub fn alltoall_exit_times(
    np: &NetParams,
    env: &PhaseEnv,
    distro: MpiDistro,
    group: &[usize],
    entries: &[SimTime],
    bytes_per_pair: usize,
) -> Vec<SimTime> {
    let kind = ExchangeKind::alltoall(distro);
    let row = uniform_row(group.len(), bytes_per_pair);
    exchange_times(np, env, &kind, group, entries, &|_| row.as_slice())
        .exits()
        .to_vec()
}

/// Exit times of a monolithic `MPI_Alltoallv` — a delegate to
/// [`exchange_times`] with [`ExchangeKind::alltoallv`].
pub fn alltoallv_exit_times(
    np: &NetParams,
    env: &PhaseEnv,
    group: &[usize],
    entries: &[SimTime],
    matrix: &[Vec<usize>],
) -> Vec<SimTime> {
    let kind = ExchangeKind::alltoallv();
    matrix_times(np, env, &kind, group, entries, matrix)
        .exits()
        .to_vec()
}

/// Exit times of a monolithic `MPI_Alltoallw` — a delegate to
/// [`exchange_times`] with [`ExchangeKind::alltoallw`].
pub fn alltoallw_exit_times(
    np: &NetParams,
    env: &PhaseEnv,
    distro: MpiDistro,
    group: &[usize],
    entries: &[SimTime],
    matrix: &[Vec<usize>],
) -> Vec<SimTime> {
    let kind = ExchangeKind::alltoallw(distro);
    matrix_times(np, env, &kind, group, entries, matrix)
        .exits()
        .to_vec()
}

/// Exit times of the monolithic heFFTe point-to-point exchange — a
/// delegate to [`exchange_times`] with [`ExchangeKind::p2p`].
pub fn p2p_exchange_exit_times(
    np: &NetParams,
    env: &PhaseEnv,
    group: &[usize],
    entries: &[SimTime],
    matrix: &[Vec<usize>],
    flavor: P2pFlavor,
) -> Vec<SimTime> {
    let kind = ExchangeKind::p2p(flavor);
    matrix_times(np, env, &kind, group, entries, matrix)
        .exits()
        .to_vec()
}

/// Exit and per-chunk ready times of a partitioned `MPI_Alltoallv`, each
/// member's sends split into `nparts` chunks eligible at
/// `part_entries[i][k]` — a delegate to [`exchange_times`].
pub fn alltoallv_partitioned_exit_times(
    np: &NetParams,
    env: &PhaseEnv,
    group: &[usize],
    part_entries: &[Vec<SimTime>],
    matrix: &[Vec<usize>],
    nparts: usize,
) -> PartitionedTimes {
    let kind = ExchangeKind::alltoallv().partitioned(true);
    let entries = flat_entries(part_entries, nparts);
    matrix_times(np, env, &kind, group, &entries, matrix)
}

/// Exit and per-chunk ready times of the partitioned point-to-point
/// exchange — a delegate to [`exchange_times`].
pub fn p2p_exchange_partitioned_exit_times(
    np: &NetParams,
    env: &PhaseEnv,
    group: &[usize],
    part_entries: &[Vec<SimTime>],
    matrix: &[Vec<usize>],
    nparts: usize,
    flavor: P2pFlavor,
) -> PartitionedTimes {
    let kind = ExchangeKind::p2p(flavor).partitioned(true);
    let entries = flat_entries(part_entries, nparts);
    matrix_times(np, env, &kind, group, &entries, matrix)
}

/// Exit and per-chunk ready times of a partitioned padded `MPI_Alltoall`
/// (always the posted scatter, see [`ExchangeKind::alltoall`]) — a
/// delegate to [`exchange_times`].
pub fn alltoall_partitioned_exit_times(
    np: &NetParams,
    env: &PhaseEnv,
    distro: MpiDistro,
    group: &[usize],
    part_entries: &[Vec<SimTime>],
    bytes_per_pair: usize,
    nparts: usize,
) -> PartitionedTimes {
    let kind = ExchangeKind::alltoall(distro).partitioned(true);
    let entries = flat_entries(part_entries, nparts);
    let row = uniform_row(group.len(), bytes_per_pair);
    exchange_times(np, env, &kind, group, &entries, &|_| row.as_slice())
}

/// Exit and per-chunk ready times of a partitioned `MPI_Alltoallw` — a
/// delegate to [`exchange_times`].
pub fn alltoallw_partitioned_exit_times(
    np: &NetParams,
    env: &PhaseEnv,
    distro: MpiDistro,
    group: &[usize],
    part_entries: &[Vec<SimTime>],
    matrix: &[Vec<usize>],
    nparts: usize,
) -> PartitionedTimes {
    let kind = ExchangeKind::alltoallw(distro).partitioned(true);
    let entries = flat_entries(part_entries, nparts);
    matrix_times(np, env, &kind, group, &entries, matrix)
}

/// The one functional reshape exchange: moves `sends[j]` to member `j` in
/// one round on the communicator's rendezvous board (zero simulated cost),
/// prices the call with [`exchange_times`] and advances the rank clock to
/// this member's exit.
///
/// A payload is any value (a packed block, a handle on the sender's array);
/// what it costs is the caller's non-zero byte row, `(j, bytes)` pairs
/// sorted by member `j`, its own included. `my_part_entries[k]` is when
/// this member's chunk-`k` payload is postable (one entry for a monolithic
/// call; chunks are assigned by [`pattern::partition_of_step`]). Returns
/// one payload per source member plus the group's [`PartitionedTimes`],
/// so the caller can begin unpacking chunk `k` at `ready(me)[k]`;
/// chunk-level overlap is the caller's to exploit.
///
/// Each member deposits its pricing inputs once, beside its payloads; the
/// last depositor prices the group once and every member shares the
/// result. Members must agree on the kind, the phase environment (its
/// unread `p2p_peers` aside) and the partition count: on a mismatch the
/// pricing member panics naming the first member that disagrees, which
/// fails the world. The group is priced with member 0's values. The call
/// counts one exchange and this member's row bytes in the rank's
/// [`RankWork`](crate::comm::RankWork).
#[expect(
    clippy::indexing_slicing,
    reason = "`windows(2)` yields pairs, the rendezvous hands over one meta per member, and the walkers ask for the rows of members below `p`"
)]
pub fn exchange<P: Send + 'static>(
    rank: &mut Rank,
    comm: &Comm,
    env: PhaseEnv,
    kind: &ExchangeKind,
    sends: Vec<P>,
    my_row: &[(usize, usize)],
    my_part_entries: &[SimTime],
) -> (Vec<P>, Arc<PartitionedTimes>) {
    let p = comm.size();
    assert_eq!(sends.len(), p, "one payload per member");
    let in_order = my_row.windows(2).all(|w| w[0].0 < w[1].0);
    assert!(
        in_order && my_row.iter().all(|&(j, b)| j < p && b > 0),
        "a byte row lists members of the group once each, in order, with non-zero bytes"
    );
    assert!(!my_part_entries.is_empty(), "at least one partition");
    assert!(
        kind.tuned.is_none()
            || my_row.first().is_none_or(|&(_, block)| {
                my_row.len() == p && my_row.iter().all(|&(_, b)| b == block)
            }),
        "MPI_Alltoall requires equal block sizes; use alltoallv"
    );
    let meta = Meta {
        kind: *kind,
        env,
        entries: my_part_entries.to_vec(),
        row: my_row.to_vec(),
    };
    let (np, group) = (net_params(rank), comm.members());
    let (recvd, times) = comm.rendezvous(rank, sends, meta, |metas| {
        // No walker reads `p2p_peers`, so members may differ on it.
        let env_of = |m: &Meta| PhaseEnv {
            p2p_peers: 0,
            ..m.env
        };
        let first = metas[0];
        for (i, m) in metas.iter().enumerate().skip(1) {
            let what = if m.kind != first.kind {
                "exchange kind"
            } else if env_of(m) != env_of(first) {
                "phase environment"
            } else if m.entries.len() != first.entries.len() {
                "partition count"
            } else {
                continue;
            };
            panic!(
                "exchange member {i} (rank {}) disagrees with member 0 on the {what}",
                group[i]
            );
        }
        let entries: Vec<SimTime> = metas
            .iter()
            .flat_map(|m| m.entries.iter().copied())
            .collect();
        exchange_times(&np, &first.env, &first.kind, group, &entries, &|i| {
            metas[i].row.as_slice()
        })
    });
    rank.clock.sync_to(times.exit(comm.me()));
    rank.work.exchanges += 1;
    rank.work.exchange_bytes += my_row.iter().map(|&(_, b)| b).sum::<usize>() as u64;
    (recvd, times)
}

/// What one member of an [`exchange`] deposits beside its payloads: its
/// pricing inputs, once.
struct Meta {
    kind: ExchangeKind,
    env: PhaseEnv,
    entries: Vec<SimTime>,
    row: Vec<(usize, usize)>,
}

/// What the delegates below price: each non-empty packed payload's length
/// in bytes.
fn packed_row<T>(sends: &[Vec<T>]) -> Vec<(usize, usize)> {
    let bytes = |(j, s): (usize, &Vec<T>)| (j, s.len() * size_of::<T>());
    sends
        .iter()
        .enumerate()
        .map(bytes)
        .filter(|&(_, b)| b > 0)
        .collect()
}

/// `MPI_Alltoallv` — a delegate to [`exchange`] with
/// [`ExchangeKind::alltoallv`]. `sends[j]` is the payload for member `j`;
/// returns one payload per source member.
pub fn alltoallv<T: Copy + Send + 'static>(
    rank: &mut Rank,
    comm: &Comm,
    env: PhaseEnv,
    sends: Vec<Vec<T>>,
) -> Vec<Vec<T>> {
    let (kind, entry, row) = (ExchangeKind::alltoallv(), [rank.now()], packed_row(&sends));
    exchange(rank, comm, env, &kind, sends, &row, &entry).0
}

/// The heFFTe point-to-point backend — a delegate to [`exchange`] with
/// [`ExchangeKind::p2p`].
pub fn p2p_exchange<T: Copy + Send + 'static>(
    rank: &mut Rank,
    comm: &Comm,
    env: PhaseEnv,
    flavor: P2pFlavor,
    sends: Vec<Vec<T>>,
) -> Vec<Vec<T>> {
    let (kind, entry, row) = (ExchangeKind::p2p(flavor), [rank.now()], packed_row(&sends));
    exchange(rank, comm, env, &kind, sends, &row, &entry).0
}

/// Partitioned `MPI_Alltoallv` — a delegate to [`exchange`] with the
/// partitioned [`ExchangeKind::alltoallv`].
pub fn alltoallv_partitioned<T: Copy + Send + 'static>(
    rank: &mut Rank,
    comm: &Comm,
    env: PhaseEnv,
    sends: Vec<Vec<T>>,
    my_part_entries: &[SimTime],
) -> (Vec<Vec<T>>, Arc<PartitionedTimes>) {
    let kind = ExchangeKind::alltoallv().partitioned(true);
    let row = packed_row(&sends);
    exchange(rank, comm, env, &kind, sends, &row, my_part_entries)
}

/// Partitioned heFFTe point-to-point exchange — a delegate to [`exchange`]
/// with the partitioned [`ExchangeKind::p2p`].
pub fn p2p_exchange_partitioned<T: Copy + Send + 'static>(
    rank: &mut Rank,
    comm: &Comm,
    env: PhaseEnv,
    flavor: P2pFlavor,
    sends: Vec<Vec<T>>,
    my_part_entries: &[SimTime],
) -> (Vec<Vec<T>>, Arc<PartitionedTimes>) {
    let kind = ExchangeKind::p2p(flavor).partitioned(true);
    let row = packed_row(&sends);
    exchange(rank, comm, env, &kind, sends, &row, my_part_entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{RankWork, World, WorldOpts};
    use crate::distro::MpiDistro;
    use simgrid::MachineSpec;

    fn world_n(n: usize) -> World {
        World::new(MachineSpec::summit(), n, WorldOpts::default())
    }

    fn env_for(n: usize) -> PhaseEnv {
        PhaseEnv::machine_wide(&MachineSpec::summit(), n, n - 1, true, 1)
    }

    /// Monolithic `MPI_Alltoallw` under the world's distro.
    fn alltoallw<T: Send + 'static>(r: &mut Rank, comm: &Comm, sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let kind = ExchangeKind::alltoallw(r.world().opts().distro);
        let entry = [r.now()];
        let row = packed_row(&sends);
        exchange(r, comm, env_for(comm.size()), &kind, sends, &row, &entry).0
    }

    /// Rank `me`'s payload for member `j`: `len` distinct values.
    fn block(me: usize, j: usize, len: usize) -> Vec<u64> {
        (0..len).map(|i| (1000 * me + 100 * j + i) as u64).collect()
    }

    #[test]
    fn alltoallv_routes_all_blocks() {
        let n = 6;
        let w = world_n(n);
        let out = w.run(|r| {
            let comm = Comm::world(r);
            // Send to j a block of j+1 values "100*me + j".
            let sends: Vec<Vec<u32>> = (0..n)
                .map(|j| vec![100 * r.rank() as u32 + j as u32; j + 1])
                .collect();
            let got = alltoallv(r, &comm, env_for(n), sends);
            (got, r.now())
        });
        for (me, (got, t)) in out.iter().enumerate() {
            assert!(t.as_ns() > 0);
            for (src, block) in got.iter().enumerate() {
                assert_eq!(block.len(), me + 1, "block size from {src} to {me}");
                assert!(block.iter().all(|v| *v == 100 * src as u32 + me as u32));
            }
        }
    }

    #[test]
    fn all_ranks_exit_alltoall_at_consistent_times() {
        let n = 6;
        let w = world_n(n);
        let out = w.run(|r| {
            let comm = Comm::world(r);
            let sends: Vec<Vec<u64>> = (0..n).map(|_| vec![7; 256]).collect();
            let kind = ExchangeKind::alltoall(MpiDistro::SpectrumMpi);
            let entry = [r.now()];
            let _ = exchange(
                r,
                &comm,
                env_for(n),
                &kind,
                sends,
                &uniform_row(6, 256 * 8),
                &entry,
            );
            r.now()
        });
        // One intra-node group with symmetric payloads: identical exits.
        for t in &out {
            assert_eq!(*t, out[0]);
        }
    }

    #[test]
    fn alltoall_selects_bruck_for_tiny_blocks() {
        // The tuned MPI_Alltoall switches algorithm on block size: for tiny
        // blocks its exit times must follow the Bruck schedule, not the
        // pairwise one.
        use crate::distro::AlltoallAlgo;
        use crate::pattern::{alltoall_times, NetParams};
        let spec = MachineSpec::summit();
        let np = NetParams::exact(&spec);
        let group: Vec<usize> = (0..24).collect();
        let entries = vec![simgrid::SimTime::ZERO; 24];
        let env = env_for(24);
        let setup = coll_setup_ns(24) + spec.gpu_call_sync_ns;
        let shifted = vec![simgrid::SimTime::from_ns(setup); 24];
        let walk = |block, algo| alltoall_times(&np, &env, &group, &shifted, block, algo);
        let tuned =
            |block| alltoall_exit_times(&np, &env, MpiDistro::SpectrumMpi, &group, &entries, block);

        let tiny = 16usize;
        assert_eq!(
            tuned(tiny),
            walk(tiny, AlltoallAlgo::Bruck),
            "tiny blocks must take the Bruck schedule"
        );
        assert_ne!(tuned(tiny), walk(tiny, AlltoallAlgo::Pairwise));

        // Large blocks take the pairwise schedule.
        let big = 1 << 20;
        assert_eq!(tuned(big), walk(big, AlltoallAlgo::Pairwise));
    }

    #[test]
    fn alltoallw_slower_than_alltoallv_on_gpu_arrays() {
        // Fig. 2's headline: Alltoallw (unoptimized, not GPU-aware under
        // SpectrumMPI) loses to Alltoall(v) on the same byte rows.
        let n = 12;
        let w = world_n(n);
        let out = w.run(|r| {
            let comm = Comm::world(r);
            let me = r.rank();
            let sends = || (0..n).map(|j| block(me, j, 24 * 24)).collect::<Vec<_>>();
            let t0 = r.now();
            let _ = alltoallv(r, &comm, env_for(n), sends());
            let t1 = r.now();
            let _ = alltoallw(r, &comm, sends());
            let t2 = r.now();
            ((t1 - t0).as_ns(), (t2 - t1).as_ns())
        });
        let (v_time, w_time) = out[0];
        assert!(
            w_time > v_time,
            "alltoallw ({w_time}) should be slower than alltoallv ({v_time})"
        );
    }

    #[test]
    fn p2p_exchange_blocking_close_to_nonblocking() {
        let n = 12;
        let w = world_n(n);
        let out = w.run(|r| {
            let comm = Comm::world(r);
            let sends: Vec<Vec<u64>> = (0..n).map(|_| vec![3; 1 << 12]).collect();
            let t0 = r.now();
            let _ = p2p_exchange(r, &comm, env_for(n), P2pFlavor::NonBlocking, sends.clone());
            let t1 = r.now();
            let _ = p2p_exchange(r, &comm, env_for(n), P2pFlavor::Blocking, sends);
            let t2 = r.now();
            ((t1 - t0).as_ns() as f64, (t2 - t1).as_ns() as f64)
        });
        let (nb, b) = out[0];
        // "Not much difference" (paper Figs. 3/7). At this tiny functional
        // scale the blocking flavor pays its per-send posting serialization
        // more visibly; the paper-scale check (512^3, 24 GPUs) lives in the
        // fig3/fig7 harnesses.
        assert!(
            (b / nb - 1.0).abs() < 0.4,
            "blocking {b} vs nonblocking {nb}"
        );
    }

    #[test]
    fn p2p_exchange_delivers_correctly_with_gaps() {
        let n = 5;
        let w = world_n(n);
        let out = w.run(|r| {
            let comm = Comm::world(r);
            // Only send to even-indexed members.
            let sends: Vec<Vec<u32>> = (0..n)
                .map(|j| {
                    if j % 2 == 0 {
                        vec![10 * r.rank() as u32 + j as u32]
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            p2p_exchange(r, &comm, env_for(n), P2pFlavor::NonBlocking, sends)
        });
        for (me, got) in out.iter().enumerate() {
            for (src, block) in got.iter().enumerate() {
                if me % 2 == 0 {
                    assert_eq!(block, &vec![10 * src as u32 + me as u32]);
                } else {
                    assert!(block.is_empty());
                }
            }
        }
    }

    #[test]
    fn partitioned_alltoallv_delivers_like_monolithic() {
        let n = 8;
        let w = world_n(n);
        let out = w.run(|r| {
            let comm = Comm::world(r);
            let sends: Vec<Vec<u32>> = (0..n)
                .map(|j| vec![100 * r.rank() as u32 + j as u32; j + 1])
                .collect();
            let pe = vec![r.now(); 4];
            let (got, times) = alltoallv_partitioned(r, &comm, env_for(n), sends, &pe);
            (got, times, r.now())
        });
        for (me, (got, times, t)) in out.iter().enumerate() {
            assert_eq!(*t, times.exit(me), "clock must land on the exit time");
            for r in times.ready(me) {
                assert!(*r <= times.exit(me));
            }
            for (src, block) in got.iter().enumerate() {
                assert_eq!(block.len(), me + 1, "block size from {src} to {me}");
                assert!(block.iter().all(|v| *v == 100 * src as u32 + me as u32));
            }
        }
    }

    #[test]
    fn partitioned_p2p_skips_empty_pairs_and_delivers() {
        let n = 8;
        let w = world_n(n);
        let out = w.run(|r| {
            let comm = Comm::world(r);
            let sends: Vec<Vec<u32>> = (0..n)
                .map(|j| {
                    if j % 2 == 0 {
                        vec![10 * r.rank() as u32 + j as u32]
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            let pe = vec![r.now(); 3];
            let (got, _) =
                p2p_exchange_partitioned(r, &comm, env_for(n), P2pFlavor::NonBlocking, sends, &pe);
            got
        });
        for (me, got) in out.iter().enumerate() {
            for (src, block) in got.iter().enumerate() {
                if me % 2 == 0 {
                    assert_eq!(block, &vec![10 * src as u32 + me as u32]);
                } else {
                    assert!(block.is_empty());
                }
            }
        }
    }

    #[test]
    fn partitioned_alltoall_delivers_padded_blocks() {
        let n = 8;
        let w = world_n(n);
        let out = w.run(|r| {
            let comm = Comm::world(r);
            // Equal padded blocks, as the padded-AllToAll reshape sends them.
            let sends: Vec<Vec<u32>> = (0..n)
                .map(|j| vec![100 * r.rank() as u32 + j as u32; 64])
                .collect();
            let pe = vec![r.now(); 4];
            let kind = ExchangeKind::alltoall(MpiDistro::SpectrumMpi).partitioned(true);
            let row = packed_row(&sends);
            let (got, times) = exchange(r, &comm, env_for(n), &kind, sends, &row, &pe);
            (got, times, r.now())
        });
        for (me, (got, times, t)) in out.iter().enumerate() {
            assert_eq!(*t, times.exit(me), "clock must land on the exit time");
            for r in times.ready(me) {
                assert!(*r <= times.exit(me));
            }
            // Early chunks must be usable strictly before the call exits —
            // the whole point of partitioning the padded collective.
            assert!(times.ready(me)[0] < times.exit(me));
            for (src, block) in got.iter().enumerate() {
                assert_eq!(block.len(), 64);
                assert!(block.iter().all(|v| *v == 100 * src as u32 + me as u32));
            }
        }
    }

    #[test]
    fn partitioned_alltoallw_matches_monolithic_data() {
        let n = 6;
        let w = world_n(n);
        let out = w.run(|r| {
            let comm = Comm::world(r);
            let me = r.rank();
            let sends = || (0..n).map(|j| block(me, j, 64)).collect::<Vec<_>>();
            let mono = alltoallw(r, &comm, sends());
            let pe = vec![r.now(); 3];
            let kind = ExchangeKind::alltoallw(MpiDistro::SpectrumMpi).partitioned(true);
            let row = packed_row(&sends());
            let (part, times) = exchange(r, &comm, env_for(n), &kind, sends(), &row, &pe);
            (mono, part, times, r.now())
        });
        for (me, (mono, part, times, t)) in out.iter().enumerate() {
            assert_eq!(
                mono, part,
                "partitioned alltoallw changed the delivered data"
            );
            for (src, got) in mono.iter().enumerate() {
                assert_eq!(*got, block(src, me, 64), "block from {src} to {me}");
            }
            assert_eq!(*t, times.exit(me));
            for r in times.ready(me) {
                assert!(*r <= times.exit(me));
            }
        }
    }

    #[test]
    fn exchange_prices_the_callers_row_not_the_payload() {
        // The same 4-byte payloads under two byte rows: the row sets the
        // simulated time and the rank's byte count; size_of::<P>() is never
        // consulted.
        let n = 4;
        let kind = ExchangeKind::alltoallv();
        let run_with_row = |bytes: usize| {
            world_n(n).run(|r| {
                let comm = Comm::world(r);
                let entry = [r.now()];
                let (got, _) = exchange(
                    r,
                    &comm,
                    env_for(n),
                    &kind,
                    vec![[7u8; 4]; n],
                    &uniform_row(4, bytes),
                    &entry,
                );
                assert_eq!(got, vec![[7u8; 4]; n], "payloads arrive untouched");
                (r.now(), r.work())
            })
        };
        let (small, large) = (run_with_row(1 << 10), run_with_row(1 << 20));
        assert!(
            large[0].0 > small[0].0,
            "a 1 MiB row ({:?}) must cost more than a 1 KiB one ({:?})",
            large[0].0,
            small[0].0
        );
        // Every member counts one round, one exchange and its own row.
        for (runs, bytes) in [(small, 1 << 10), (large, 1 << 20)] {
            for (_, work) in runs {
                let want = RankWork {
                    rounds: 1,
                    exchanges: 1,
                    exchange_bytes: (n * bytes) as u64,
                };
                assert_eq!(work, want);
            }
        }
    }

    #[test]
    fn alltoall_checks_equal_blocks_on_the_row() {
        let n = 3;
        let kind = ExchangeKind::alltoall(MpiDistro::SpectrumMpi);
        // Unequal payloads under an equal row are a valid padded call.
        let ragged = world_n(n).run(|r| {
            let comm = Comm::world(r);
            let sends: Vec<Vec<u8>> = (0..n).map(|j| vec![1; j]).collect();
            let entry = [r.now()];
            exchange(
                r,
                &comm,
                env_for(n),
                &kind,
                sends,
                &uniform_row(3, 64),
                &entry,
            )
            .0
        });
        assert_eq!(ragged[2], vec![vec![1; 2]; n]);
        // Equal payloads under an unequal row are not. Every member fails
        // before posting anything, so no peer is left waiting.
        let rejected = world_n(n).run(|r| {
            let comm = Comm::world(r);
            let entry = [r.now()];
            let call = std::panic::AssertUnwindSafe(|| {
                exchange(
                    r,
                    &comm,
                    env_for(n),
                    &kind,
                    vec![[0u8; 8]; n],
                    &[(0, 64), (1, 64), (2, 128)],
                    &entry,
                )
            });
            let err = std::panic::catch_unwind(call).expect_err("unequal row must be rejected");
            err.downcast_ref::<&str>().map(|m| m.to_string())
        });
        for msg in rejected {
            assert_eq!(
                msg.as_deref(),
                Some("MPI_Alltoall requires equal block sizes; use alltoallv")
            );
        }
    }

    /// Every exchange kind, monolithic and partitioned, under both distros
    /// and noisy pricing, is shift-equivariant: delaying every entry by the
    /// same time delays every ready time and exit by exactly that time. The
    /// rows are sparse and uneven, some empty; padded `MPI_Alltoall` takes
    /// uniform rows of a Bruck-sized and a pairwise-sized block.
    #[test]
    fn exchange_times_shift_with_their_entries() {
        let spec = MachineSpec::summit();
        let np = NetParams {
            spec: &spec,
            seed: 3,
            noise_amp: 0.05,
        };
        let p = 13;
        let group: Vec<usize> = (0..p).map(|i| i * 5 / 3).collect();
        let env = PhaseEnv::machine_wide(&spec, 24, p - 1, true, 9);
        let ragged: Vec<Vec<(usize, usize)>> = (0..p)
            .map(|i| {
                let pairs =
                    (0..p).map(|j| (j, (i * 7 + j * 3) % 5 * 4096 * usize::from(i % 4 != 1)));
                pairs.filter(|&(_, b)| b > 0).collect()
            })
            .collect();
        let shift = SimTime::from_us(250);
        for distro in [MpiDistro::SpectrumMpi, MpiDistro::MvapichGdr] {
            let kinds = [
                ExchangeKind::alltoall(distro),
                ExchangeKind::alltoallv(),
                ExchangeKind::alltoallw(distro),
                ExchangeKind::p2p(P2pFlavor::Blocking),
                ExchangeKind::p2p(P2pFlavor::NonBlocking),
            ];
            for (kind, nparts, block) in kinds
                .into_iter()
                .flat_map(|kind| [1, 3].map(|nparts| (kind.partitioned(nparts > 1), nparts)))
                .flat_map(|(kind, nparts)| [16, 1 << 20].map(|block| (kind, nparts, block)))
            {
                let padded = uniform_row(p, block);
                let rows = |i: usize| match kind.tuned {
                    Some(_) => padded.as_slice(),
                    None => ragged[i].as_slice(),
                };
                let entries: Vec<SimTime> = (0..p * nparts)
                    .map(|x| SimTime::from_ns(x as u64 * 7919 % 20_000))
                    .collect();
                let later: Vec<SimTime> = entries.iter().map(|&t| t + shift).collect();
                let base = exchange_times(&np, &env, &kind, &group, &entries, &rows);
                let moved = exchange_times(&np, &env, &kind, &group, &later, &rows);
                for i in 0..p {
                    let what = format!("{kind:?}, {nparts} parts, block {block}, member {i}");
                    assert_eq!(moved.exit(i), base.exit(i) + shift, "{what}");
                    for (m, b) in moved.ready(i).iter().zip(base.ready(i)) {
                        assert_eq!(*m, *b + shift, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn distro_affects_alltoallw_cost() {
        let n = 6;
        let run_with = |d: MpiDistro| {
            let w = World::new(
                MachineSpec::summit(),
                n,
                WorldOpts {
                    distro: d,
                    ..WorldOpts::default()
                },
            );
            let out = w.run(|r| {
                let comm = Comm::world(r);
                let sends: Vec<Vec<u64>> = (0..n).map(|_| vec![1; 16 * 16]).collect();
                let _ = alltoallw(r, &comm, sends);
                r.now().as_ns()
            });
            out[0]
        };
        let spectrum = run_with(MpiDistro::SpectrumMpi);
        let mvapich = run_with(MpiDistro::MvapichGdr);
        assert!(
            mvapich < spectrum,
            "GPU-aware MVAPICH alltoallw ({mvapich}) should beat staged SpectrumMPI ({spectrum})"
        );
    }
}
