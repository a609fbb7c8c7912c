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
use crate::distro::{AlltoallAlgo, MpiDistro};
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
    /// `fftobs` counter names (calls, bytes): monolithic, then `_part`.
    counters: [(&'static str, &'static str); 2],
    /// An MPI collective (tuned-dispatch setup, every pair posted, even
    /// empty ones) rather than heFFTe's hand-written loop (call sync only,
    /// empty pairs skipped).
    collective: bool,
    flavor: P2pFlavor,
    msg_cost: MsgCost,
    /// Padded `MPI_Alltoall`: every pair carries `bytes(0, 0)`, and the
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
    /// large. A partitioned exchange must keep per-peer messages intact so
    /// a receiver can match chunk `k`'s blocks as they land, which rules
    /// out Bruck's log-round payload mixing and the pairwise schedule's
    /// step-synchronized rounds: chunking forces the posted scatter.
    pub fn alltoall(distro: MpiDistro) -> ExchangeKind {
        ExchangeKind {
            counters: [
                ("mpisim.calls.alltoall", "mpisim.bytes.alltoall"),
                ("mpisim.calls.alltoall_part", "mpisim.bytes.alltoall_part"),
            ],
            tuned: Some(distro),
            ..ExchangeKind::alltoallv()
        }
    }

    /// `MPI_Alltoallv`: the basic-linear algorithm (post every pair
    /// non-blocking, wait all) that SpectrumMPI and MVAPICH use for the
    /// irregular collective — zero-count pairs are still posted.
    pub fn alltoallv() -> ExchangeKind {
        ExchangeKind {
            counters: [
                ("mpisim.calls.alltoallv", "mpisim.bytes.alltoallv"),
                ("mpisim.calls.alltoallv_part", "mpisim.bytes.alltoallv_part"),
            ],
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
            counters: [
                ("mpisim.calls.alltoallw", "mpisim.bytes.alltoallw"),
                ("mpisim.calls.alltoallw_part", "mpisim.bytes.alltoallw_part"),
            ],
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
            counters: [
                ("mpisim.calls.p2p", "mpisim.bytes.p2p"),
                ("mpisim.calls.p2p_part", "mpisim.bytes.p2p_part"),
            ],
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
/// call) and the per-pair payload `bytes(i, j)` (group indices).
///
/// This is the single pricer behind both execution modes, called once per
/// collective in each: the functional [`exchange`] with the entries and
/// byte rows the members deposited, the analytic dry-run with the ones it
/// computed — the mechanism that keeps the two in exact agreement.
pub fn exchange_times<B: Fn(usize, usize) -> usize>(
    np: &NetParams,
    env: &PhaseEnv,
    kind: &ExchangeKind,
    group: &[usize],
    part_entries: &[SimTime],
    bytes: &B,
) -> PartitionedTimes {
    let p = group.len();
    let nparts = part_entries.len() / p.max(1);
    assert!(
        nparts >= 1 && (kind.partitioned || nparts == 1),
        "a monolithic exchange has exactly one entry per member"
    );
    if fftobs::enabled() {
        let (calls, total) = kind.counters[kind.partitioned as usize];
        let payload: usize = match kind.tuned {
            Some(_) => bytes(0, 0) * p * p,
            None => (0..p)
                .map(|i| (0..p).map(|j| bytes(i, j)).sum::<usize>())
                .sum(),
        };
        fftobs::count(calls, 1);
        fftobs::count(total, payload as u64);
    }
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
        let block = bytes(0, 0);
        return PartitionedTimes::from_exits(match distro.alltoall_algo(block) {
            AlltoallAlgo::Pairwise => {
                pattern::pairwise_times(np, &env, group, &entries, &|_, _| block, 0)
            }
            AlltoallAlgo::Bruck => {
                pattern::bruck_times(np, &env, group, &entries, &vec![block * p; p])
            }
        });
    }
    let peers: Vec<usize> = match kind.msg_cost {
        MsgCost::GpuRegistration if env.gpu_aware => (0..p)
            .map(|i| (0..p).filter(|&j| j != i && bytes(i, j) > 0).count())
            .collect(),
        _ => Vec::new(),
    };
    let msg_ns = |sender: usize, bytes: usize, sending: bool| match kind.msg_cost {
        MsgCost::Datatype { setup_ns, pack_gbs } => {
            setup_ns + (bytes as f64 / pack_gbs).ceil() as u64
        }
        MsgCost::GpuRegistration if sending && env.gpu_aware => {
            np.spec.p2p_gpu_aware_overhead_ns(peers[sender].max(1))
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
    pattern::scatter_times(np, &env, group, &entries, bytes, &policy)
}

fn matrix_bytes(matrix: &[Vec<usize>]) -> impl Fn(usize, usize) -> usize + '_ {
    |i, j| matrix[i][j]
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
    exchange_times(np, env, &kind, group, entries, &|_, _| bytes_per_pair)
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
    exchange_times(np, env, &kind, group, entries, &matrix_bytes(matrix))
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
    exchange_times(np, env, &kind, group, entries, &matrix_bytes(matrix))
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
    exchange_times(np, env, &kind, group, entries, &matrix_bytes(matrix))
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
    exchange_times(np, env, &kind, group, &entries, &matrix_bytes(matrix))
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
    exchange_times(np, env, &kind, group, &entries, &matrix_bytes(matrix))
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
    exchange_times(np, env, &kind, group, &entries, &|_, _| bytes_per_pair)
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
    exchange_times(np, env, &kind, group, &entries, &matrix_bytes(matrix))
}

/// The one functional reshape exchange: moves `sends[j]` to member `j` in
/// one round on the communicator's rendezvous board (zero simulated cost),
/// prices the call with [`exchange_times`] and advances the rank clock to
/// this member's exit.
///
/// A payload is any value (a packed block, a handle on the sender's array);
/// what it costs is the caller's byte row, `my_bytes[j]` to member `j`.
/// `my_part_entries[k]` is when this member's chunk-`k` payload is
/// postable (one entry for a monolithic call; chunks are assigned by
/// [`pattern::partition_of_step`]). Returns one payload per source member
/// plus the group's [`PartitionedTimes`], so the caller can begin
/// unpacking chunk `k` at `ready(me)[k]`; chunk-level overlap is the
/// caller's to exploit.
///
/// Each member deposits its pricing inputs once, beside its payloads; the
/// last depositor prices the group once and every member shares the
/// result. Members must agree on the kind, the phase environment (its
/// unread `p2p_peers` aside) and the partition count: on a mismatch the
/// pricing member panics naming the first member that disagrees, which
/// fails the world. The group is priced with member 0's values.
pub fn exchange<P: Send + 'static>(
    rank: &mut Rank,
    comm: &Comm,
    env: PhaseEnv,
    kind: &ExchangeKind,
    sends: Vec<P>,
    my_bytes: &[usize],
    my_part_entries: &[SimTime],
) -> (Vec<P>, Arc<PartitionedTimes>) {
    let p = comm.size();
    assert_eq!(sends.len(), p, "one payload per member");
    assert_eq!(my_bytes.len(), p, "one byte count per member");
    assert!(!my_part_entries.is_empty(), "at least one partition");
    assert!(
        kind.tuned.is_none() || my_bytes.iter().all(|b| *b == my_bytes[0]),
        "MPI_Alltoall requires equal block sizes; use alltoallv"
    );
    let meta = Meta {
        kind: *kind,
        env,
        entries: my_part_entries.to_vec(),
        bytes: my_bytes.to_vec(),
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
        exchange_times(&np, &first.env, &first.kind, group, &entries, &|i, j| {
            metas[i].bytes[j]
        })
    });
    rank.clock.sync_to(times.exit(comm.me()));
    (recvd, times)
}

/// What one member of an [`exchange`] deposits beside its payloads: its
/// pricing inputs, once.
struct Meta {
    kind: ExchangeKind,
    env: PhaseEnv,
    entries: Vec<SimTime>,
    bytes: Vec<usize>,
}

/// What the delegates below price: each packed payload's length in bytes.
fn packed_row<T>(sends: &[Vec<T>]) -> Vec<usize> {
    sends.iter().map(|s| s.len() * size_of::<T>()).collect()
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
    use crate::comm::{World, WorldOpts};
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
            let _ = exchange(r, &comm, env_for(n), &kind, sends, &[256 * 8; 6], &entry);
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
        use crate::pattern::{bruck_times, pairwise_times, NetParams};
        let spec = MachineSpec::summit();
        let np = NetParams::exact(&spec);
        let group: Vec<usize> = (0..24).collect();
        let entries = vec![simgrid::SimTime::ZERO; 24];
        let env = env_for(24);
        let tiny = 16usize;

        let setup = coll_setup_ns(24) + MachineSpec::summit().gpu_call_sync_ns;
        let shifted_entries: Vec<simgrid::SimTime> = entries
            .iter()
            .map(|t| *t + simgrid::SimTime::from_ns(setup))
            .collect();
        let got = alltoall_exit_times(&np, &env, MpiDistro::SpectrumMpi, &group, &entries, tiny);
        let bruck = bruck_times(&np, &env, &group, &shifted_entries, &[tiny * 24; 24]);
        let pairwise = pairwise_times(&np, &env, &group, &shifted_entries, &|_, _| tiny, 0);
        assert_eq!(got, bruck, "tiny blocks must take the Bruck schedule");
        assert_ne!(got, pairwise);

        // Large blocks take the pairwise schedule.
        let big = 1 << 20;
        let got_big = alltoall_exit_times(&np, &env, MpiDistro::SpectrumMpi, &group, &entries, big);
        let pairwise_big = pairwise_times(&np, &env, &group, &shifted_entries, &|_, _| big, 0);
        assert_eq!(got_big, pairwise_big);
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
        // simulated time and feeds the byte counters; size_of::<P>() is
        // never consulted. Own counter names, so no concurrently running
        // test adds to them while recording is on.
        let n = 4;
        let kind = ExchangeKind {
            counters: [("coll_test.calls", "coll_test.bytes"); 2],
            ..ExchangeKind::alltoallv()
        };
        let exit_with_row = |bytes: usize| {
            world_n(n).run(|r| {
                let comm = Comm::world(r);
                let entry = [r.now()];
                let (got, _) = exchange(
                    r,
                    &comm,
                    env_for(n),
                    &kind,
                    vec![[7u8; 4]; n],
                    &[bytes; 4],
                    &entry,
                );
                assert_eq!(got, vec![[7u8; 4]; n], "payloads arrive untouched");
                r.now()
            })[0]
        };
        let counted = || fftobs::registry().snapshot().counter("coll_test.bytes");
        fftobs::set_enabled(true);
        let before = counted().unwrap_or(0);
        let (small, large) = (exit_with_row(1 << 10), exit_with_row(1 << 20));
        let after = counted().unwrap_or(0);
        fftobs::set_enabled(false);
        assert!(
            large > small,
            "a 1 MiB row ({large}) must cost more than a 1 KiB one ({small})"
        );
        // The group prices the whole n × n matrix once per call.
        assert_eq!(after - before, (n * n * ((1 << 10) + (1 << 20))) as u64);
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
            exchange(r, &comm, env_for(n), &kind, sends, &[64; 3], &entry).0
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
                    &[64, 64, 128],
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
