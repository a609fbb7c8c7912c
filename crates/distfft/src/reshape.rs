//! Reshape (a.k.a. remap / transpose) planning.
//!
//! A reshape moves the data from one [`Distribution`] to another: rank `r`
//! sends the intersection of its old box with every rank's new box (paper
//! Algorithm 1, lines 9–13: pack → transfer → unpack). The planner also
//! discovers the *communication groups* — the connected components of the
//! flow graph, which for pencil↔pencil reshapes are exactly the paper's "MPI
//! groups for each direction" (Algorithm 1, line 5) — so each exchange runs
//! on a sub-communicator.

use crate::boxes::Box3;
use crate::procgrid::Distribution;
use fftkern::C64;

/// Bytes per complex element.
pub const ELEM_BYTES: usize = C64::BYTES;

/// A structural defect in a [`ReshapeSpec`] — a malformed spec must fail
/// loudly at plan/validate time instead of silently producing an empty
/// exchange (the old behavior mapped a missing peer region to zero bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReshapeError {
    /// `sends[rank]` has no region for `dst` although `recvs[dst]` expects
    /// one from `rank`.
    MissingSendRegion {
        /// Rank whose send list is missing the region.
        rank: usize,
        /// Destination the region should route to.
        dst: usize,
    },
    /// `recvs[rank]` has no region for `src` although `sends[src]` routes
    /// one to `rank`.
    MissingRecvRegion {
        /// Rank whose recv list is missing the region.
        rank: usize,
        /// Source whose send has no matching recv.
        src: usize,
    },
    /// The send region `rank → dst` and the matching recv region disagree.
    RegionMismatch {
        /// Sending rank.
        rank: usize,
        /// Receiving rank.
        dst: usize,
    },
    /// A rank lists the same peer twice on one side.
    DuplicatePeer {
        /// Rank with the duplicated entry.
        rank: usize,
        /// The repeated peer.
        peer: usize,
    },
}

impl std::fmt::Display for ReshapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReshapeError::MissingSendRegion { rank, dst } => {
                write!(f, "reshape spec: rank {rank} has no send region for destination {dst} but rank {dst} expects one")
            }
            ReshapeError::MissingRecvRegion { rank, src } => {
                write!(f, "reshape spec: rank {rank} has no recv region for source {src} but rank {src} sends one")
            }
            ReshapeError::RegionMismatch { rank, dst } => {
                write!(f, "reshape spec: send region {rank} -> {dst} disagrees with the matching recv region")
            }
            ReshapeError::DuplicatePeer { rank, peer } => {
                write!(
                    f,
                    "reshape spec: rank {rank} lists peer {peer} more than once"
                )
            }
        }
    }
}

impl std::error::Error for ReshapeError {}

/// A fully-resolved reshape between two distributions.
#[derive(Debug, Clone)]
pub struct ReshapeSpec {
    /// Per rank: `(destination rank, region)` pairs, sorted by destination.
    /// Includes the self block when the old and new boxes overlap.
    pub sends: Vec<Vec<(usize, Box3)>>,
    /// Per rank: `(source rank, region)` pairs, sorted by source.
    pub recvs: Vec<Vec<(usize, Box3)>>,
    /// Communication groups: connected components of the flow graph with at
    /// least one member, each sorted ascending. Ranks with no flows at all
    /// appear in no group.
    pub groups: Vec<Vec<usize>>,
    /// Rank → index into `groups` (None for flow-less ranks).
    pub group_of: Vec<Option<usize>>,
}

impl ReshapeSpec {
    /// Plans the reshape `from → to`. Both distributions must cover the same
    /// domain with the same rank count.
    pub fn build(from: &Distribution, to: &Distribution) -> ReshapeSpec {
        let n = from.boxes.len();
        assert_eq!(n, to.boxes.len(), "distributions disagree on rank count");

        let mut sends: Vec<Vec<(usize, Box3)>> = vec![Vec::new(); n];
        let mut recvs: Vec<Vec<(usize, Box3)>> = vec![Vec::new(); n];
        let mut uf = UnionFind::new(n);
        let mut has_flow = vec![false; n];

        // Domain extents, recovered from the union of boxes (identical in
        // both distributions by construction).
        let mut domain = [0usize; 3];
        for b in from.boxes.iter().chain(to.boxes.iter()) {
            for (d, ext) in domain.iter_mut().enumerate() {
                *ext = (*ext).max(b.hi[d]);
            }
        }

        for r in 0..n {
            let src_box = &from.boxes[r];
            if src_box.is_empty() {
                continue;
            }
            // Fast path: only visit target ranks whose grid cells the source
            // box can touch — O(peers) per rank instead of O(Π).
            for s in to.ranks_overlapping(domain, src_box) {
                let overlap = src_box.intersect(&to.boxes[s]);
                if overlap.is_empty() {
                    continue;
                }
                sends[r].push((s, overlap));
                recvs[s].push((r, overlap));
                has_flow[r] = true;
                has_flow[s] = true;
                if r != s {
                    uf.union(r, s);
                }
            }
        }
        for v in sends.iter_mut() {
            v.sort_unstable_by_key(|(d, _)| *d);
        }
        for v in recvs.iter_mut() {
            v.sort_unstable_by_key(|(s, _)| *s);
        }

        // Connected components over ranks with flows.
        let mut group_map: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        #[allow(clippy::needless_range_loop)] // r is a rank id fed to find()
        for r in 0..n {
            if has_flow[r] {
                group_map.entry(uf.find(r)).or_default().push(r);
            }
        }
        let groups: Vec<Vec<usize>> = group_map.into_values().collect();
        let mut group_of = vec![None; n];
        for (gi, g) in groups.iter().enumerate() {
            for &r in g {
                group_of[r] = Some(gi);
            }
        }
        let spec = ReshapeSpec {
            sends,
            recvs,
            groups,
            group_of,
        };
        if let Err(e) = spec.validate() {
            panic!("planner produced a malformed reshape: {e}");
        }
        spec
    }

    /// The reverse reshape `to → from`, derived without re-planning: the
    /// flow graph is symmetric, so sends and recvs swap while groups (its
    /// connected components) are unchanged. Equivalent to — and much cheaper
    /// than — `ReshapeSpec::build(to, from)`.
    pub fn reversed(&self) -> ReshapeSpec {
        let spec = ReshapeSpec {
            sends: self.recvs.clone(),
            recvs: self.sends.clone(),
            groups: self.groups.clone(),
            group_of: self.group_of.clone(),
        };
        debug_assert!(spec.validate().is_ok(), "reversed spec must stay valid");
        spec
    }

    /// True when every rank's only flow is to itself (the reshape is a
    /// no-op permutation and can be skipped).
    pub fn is_identity(&self) -> bool {
        self.sends
            .iter()
            .enumerate()
            .all(|(r, v)| v.iter().all(|(d, _)| *d == r))
    }

    /// Checks the spec's structural invariants: each side's peer lists are
    /// duplicate-free, and sends/recvs mirror each other exactly (same
    /// pairs, same regions). [`ReshapeSpec::build`] and
    /// [`ReshapeSpec::reversed`] assert this, so a spec corrupted after
    /// construction fails at the next validation point rather than
    /// producing an empty exchange.
    pub fn validate(&self) -> Result<(), ReshapeError> {
        for (r, v) in self.sends.iter().enumerate() {
            for w in v.windows(2) {
                if w[0].0 == w[1].0 {
                    return Err(ReshapeError::DuplicatePeer {
                        rank: r,
                        peer: w[0].0,
                    });
                }
            }
        }
        for (r, v) in self.recvs.iter().enumerate() {
            for w in v.windows(2) {
                if w[0].0 == w[1].0 {
                    return Err(ReshapeError::DuplicatePeer {
                        rank: r,
                        peer: w[0].0,
                    });
                }
            }
        }
        for (r, v) in self.sends.iter().enumerate() {
            for (d, region) in v {
                match self.recvs[*d].iter().find(|(s, _)| *s == r) {
                    None => return Err(ReshapeError::MissingRecvRegion { rank: *d, src: r }),
                    Some((_, got)) if got != region => {
                        return Err(ReshapeError::RegionMismatch { rank: r, dst: *d })
                    }
                    Some(_) => {}
                }
            }
        }
        for (r, v) in self.recvs.iter().enumerate() {
            for (s, _) in v {
                if !self.sends[*s].iter().any(|(d, _)| *d == r) {
                    return Err(ReshapeError::MissingSendRegion { rank: *s, dst: r });
                }
            }
        }
        Ok(())
    }

    /// Per-member index of rank `rank`'s send regions: `out[i]` is the
    /// region destined to `members[i]`, `None` when there is no flow.
    /// Built with a two-pointer merge (both sides sorted ascending), so one
    /// O(p + peers) pass replaces the O(peers) `find` per member that made
    /// deposit/pack loops O(peers²).
    pub fn send_region_index<'a>(
        &'a self,
        rank: usize,
        members: &[usize],
    ) -> Vec<Option<&'a Box3>> {
        Self::region_index(&self.sends[rank], members)
    }

    /// Per-member index of rank `rank`'s recv regions (see
    /// [`ReshapeSpec::send_region_index`]).
    pub fn recv_region_index<'a>(
        &'a self,
        rank: usize,
        members: &[usize],
    ) -> Vec<Option<&'a Box3>> {
        Self::region_index(&self.recvs[rank], members)
    }

    fn region_index<'a>(flows: &'a [(usize, Box3)], members: &[usize]) -> Vec<Option<&'a Box3>> {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "members sorted");
        let mut out = vec![None; members.len()];
        let mut f = 0;
        for (i, &m) in members.iter().enumerate() {
            while f < flows.len() && flows[f].0 < m {
                f += 1;
            }
            if f < flows.len() && flows[f].0 == m {
                out[i] = Some(&flows[f].1);
                f += 1;
            }
        }
        out
    }

    /// Bytes rank `r` sends to rank `s` (0 if no flow — callers sum this
    /// over arbitrary pairs).
    pub fn bytes(&self, r: usize, s: usize) -> usize {
        self.sends[r]
            .iter()
            .find(|(d, _)| *d == s)
            .map(|(_, b)| b.volume() * ELEM_BYTES)
            .unwrap_or(0)
    }

    /// Total bytes rank `r` sends to *other* ranks (the MPI payload; the
    /// self block moves by device copy).
    pub fn offrank_send_bytes(&self, r: usize) -> usize {
        self.sends[r]
            .iter()
            .filter(|(d, _)| *d != r)
            .map(|(_, b)| b.volume() * ELEM_BYTES)
            .sum()
    }

    /// Total bytes rank `r` receives from other ranks.
    pub fn offrank_recv_bytes(&self, r: usize) -> usize {
        self.recvs[r]
            .iter()
            .filter(|(s, _)| *s != r)
            .map(|(_, b)| b.volume() * ELEM_BYTES)
            .sum()
    }

    /// Number of off-rank destinations of rank `r`.
    pub fn peer_count(&self, r: usize) -> usize {
        self.sends[r].iter().filter(|(d, _)| *d != r).count()
    }

    /// The largest per-pair block (bytes) within rank `r`'s group — what a
    /// padded `MPI_Alltoall` must size every block to (§IV-B: "the cost
    /// associated with padding").
    pub fn padded_block_bytes(&self, group: &[usize]) -> usize {
        let mut max = 0;
        for &r in group {
            for (_, b) in &self.sends[r] {
                max = max.max(b.volume() * ELEM_BYTES);
            }
        }
        max
    }

    /// Builds the dense per-pair byte matrix of one group (indices are
    /// positions within `group`), for the schedule walkers.
    pub fn group_byte_matrix(&self, group: &[usize]) -> Vec<Vec<usize>> {
        let pos: std::collections::BTreeMap<usize, usize> =
            group.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        let mut m = vec![vec![0usize; group.len()]; group.len()];
        for (i, &r) in group.iter().enumerate() {
            for (d, b) in &self.sends[r] {
                if let Some(&j) = pos.get(d) {
                    m[i][j] = b.volume() * ELEM_BYTES;
                }
            }
        }
        m
    }

    /// Transform-ahead chunk → complete-line map (DESIGN.md §14).
    ///
    /// When `rank` (group index `me_sub` within sorted `members`) chunks its
    /// reshape exchange into `k_eff` per-peer chunks, each axis line of the
    /// receive box `to_box` is transformable once *every* receive region
    /// touching it has deposited. The region from group index `j` lands
    /// with chunk `partition_of_step((me_sub + p − j) mod p, p, k_eff)`
    /// (the self block is chunk 0), so a line's arrival chunk is the max
    /// over its regions. Returns, per chunk, the maximal `[lo, hi)` runs of
    /// line indices that become complete with that chunk. Line indices are
    /// the batch indices the next-axis FFT kernel sees (axis 2:
    /// `i0·s1 + i1`; axis 1: `i0·s2 + i2`; axis 0: `i1·s2 + i2`); every
    /// line of `to_box` appears in exactly one chunk.
    pub fn recv_line_runs(
        &self,
        rank: usize,
        members: &[usize],
        me_sub: usize,
        k_eff: usize,
        to_box: &Box3,
        axis: usize,
    ) -> Vec<Vec<(usize, usize)>> {
        assert!(k_eff >= 1, "need at least one chunk");
        let p = members.len();
        let total = if to_box.is_empty() {
            0
        } else {
            to_box.volume() / to_box.len(axis)
        };
        let mut arrival = vec![0usize; total];
        // The two dims spanning the line grid, and the fast-dim width.
        let (da, db) = match axis {
            2 => (0, 1),
            1 => (0, 2),
            _ => (1, 2),
        };
        let width = to_box.len(db);
        for (j, region) in self.recv_region_index(rank, members).iter().enumerate() {
            let Some(r) = region else { continue };
            let chunk = if j == me_sub {
                0
            } else {
                mpisim::pattern::partition_of_step((me_sub + p - j) % p, p, k_eff)
            };
            for ia in (r.lo[da] - to_box.lo[da])..(r.hi[da] - to_box.lo[da]) {
                for ib in (r.lo[db] - to_box.lo[db])..(r.hi[db] - to_box.lo[db]) {
                    let l = ia * width + ib;
                    arrival[l] = arrival[l].max(chunk);
                }
            }
        }
        let mut runs = vec![Vec::new(); k_eff];
        let mut l = 0;
        while l < total {
            let c = arrival[l];
            let mut hi = l + 1;
            while hi < total && arrival[hi] == c {
                hi += 1;
            }
            runs[c].push((l, hi));
            l = hi;
        }
        runs
    }
}

/// Copies the overlap of `old_box` and `new_box` from one array into the
/// other with no intermediate staging buffer — every block of a reshape,
/// the rank's own or a peer's, takes this one copy (`exec::run_reshape`).
///
/// Like `Box3::extract_into`/`deposit`, runs are coalesced: when the
/// overlap spans the full fastest axis of *both* boxes, whole `j`-planes
/// (and, if it also spans axis 1 of both, the entire overlap) collapse into
/// single bulk copies. Slab self-blocks hit the fully-merged case. Returns
/// the number of elements copied (the overlap's volume).
pub fn apply_self_block(
    old_box: &Box3,
    old_data: &[C64],
    new_box: &Box3,
    new_data: &mut [C64],
) -> usize {
    let overlap = old_box.intersect(new_box);
    if overlap.is_empty() {
        return 0;
    }
    let full = |b: &Box3, d: usize| overlap.lo[d] == b.lo[d] && overlap.hi[d] == b.hi[d];
    let run = if full(old_box, 2) && full(new_box, 2) {
        if full(old_box, 1) && full(new_box, 1) {
            overlap.volume()
        } else {
            overlap.len(1) * overlap.len(2)
        }
    } else {
        overlap.len(2)
    };
    let vol = overlap.volume();
    let mut copied = 0;
    for i in overlap.lo[0]..overlap.hi[0] {
        let mut j = overlap.lo[1];
        while j < overlap.hi[1] {
            let src = old_box.local_index([i, j, overlap.lo[2]]);
            let dst = new_box.local_index([i, j, overlap.lo[2]]);
            new_data[dst..dst + run].copy_from_slice(&old_data[src..src + run]);
            copied += run;
            if copied >= vol {
                return copied;
            }
            j += (run / overlap.len(2)).max(1);
        }
    }
    copied
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procgrid::Distribution;

    fn n64() -> [usize; 3] {
        [8, 8, 8]
    }

    #[test]
    fn pencil_to_pencil_groups_follow_fixed_axis() {
        // (1,2,4) -> (2,1,4): flows stay within fixed axis-2 chunks, giving
        // 4 groups of 2 ranks — the paper's per-direction MPI groups.
        let a = Distribution::new(n64(), [1, 2, 4], 8);
        let b = Distribution::new(n64(), [2, 1, 4], 8);
        let rs = ReshapeSpec::build(&a, &b);
        assert_eq!(rs.groups.len(), 4);
        for g in &rs.groups {
            assert_eq!(g.len(), 2);
        }
        assert!(!rs.is_identity());
    }

    #[test]
    fn brick_to_pencil_is_one_big_group() {
        let a = Distribution::new(n64(), [2, 2, 2], 8);
        let b = Distribution::new(n64(), [1, 2, 4], 8);
        let rs = ReshapeSpec::build(&a, &b);
        assert_eq!(rs.groups.len(), 1);
        assert_eq!(rs.groups[0].len(), 8);
    }

    #[test]
    fn identity_reshape_detected() {
        let a = Distribution::new(n64(), [2, 2, 2], 8);
        let rs = ReshapeSpec::build(&a, &a.clone());
        assert!(rs.is_identity());
        // Still has (self) flows for every rank.
        for r in 0..8 {
            assert_eq!(rs.sends[r].len(), 1);
            assert_eq!(rs.sends[r][0].0, r);
        }
    }

    #[test]
    fn flows_conserve_volume() {
        let a = Distribution::new([8, 9, 10], [2, 3, 1], 6);
        let b = Distribution::new([8, 9, 10], [1, 2, 3], 6);
        let rs = ReshapeSpec::build(&a, &b);
        // Total sent volume equals the domain volume.
        let sent: usize = rs
            .sends
            .iter()
            .flat_map(|v| v.iter().map(|(_, b)| b.volume()))
            .sum();
        assert_eq!(sent, 720);
        // Each rank receives exactly its new box volume.
        for r in 0..6 {
            let recv: usize = rs.recvs[r].iter().map(|(_, b)| b.volume()).sum();
            assert_eq!(recv, b.boxes[r].volume(), "rank {r}");
        }
    }

    #[test]
    fn recv_regions_partition_target_box() {
        let a = Distribution::new([8, 8, 8], [4, 1, 2], 8);
        let b = Distribution::new([8, 8, 8], [1, 4, 2], 8);
        let rs = ReshapeSpec::build(&a, &b);
        for r in 0..8 {
            // Pairwise disjoint.
            let regions: Vec<&Box3> = rs.recvs[r].iter().map(|(_, b)| b).collect();
            for i in 0..regions.len() {
                for j in (i + 1)..regions.len() {
                    assert!(regions[i].intersect(regions[j]).is_empty());
                }
            }
        }
    }

    #[test]
    fn bytes_accessors_agree() {
        let a = Distribution::new([8, 8, 8], [1, 2, 4], 8);
        let b = Distribution::new([8, 8, 8], [2, 1, 4], 8);
        let rs = ReshapeSpec::build(&a, &b);
        for r in 0..8 {
            let total: usize = (0..8).filter(|&s| s != r).map(|s| rs.bytes(r, s)).sum();
            assert_eq!(total, rs.offrank_send_bytes(r));
        }
        // Symmetric distributions here: sends == recvs in aggregate.
        let s: usize = (0..8).map(|r| rs.offrank_send_bytes(r)).sum();
        let v: usize = (0..8).map(|r| rs.offrank_recv_bytes(r)).sum();
        assert_eq!(s, v);
    }

    #[test]
    fn padded_block_is_group_max() {
        // Uneven domain so blocks differ.
        let a = Distribution::new([8, 9, 10], [1, 3, 2], 6);
        let b = Distribution::new([8, 9, 10], [3, 1, 2], 6);
        let rs = ReshapeSpec::build(&a, &b);
        for g in &rs.groups {
            let pad = rs.padded_block_bytes(g);
            let m = rs.group_byte_matrix(g);
            let max_in_matrix = m.iter().flatten().copied().max().unwrap();
            // The matrix excludes nothing within the group, so they agree.
            assert_eq!(pad, max_in_matrix);
            assert!(pad > 0);
        }
    }

    #[test]
    fn shrinking_reshape_routes_to_active_subset() {
        // 8 ranks, data shrinks onto the first 2.
        let a = Distribution::new([8, 8, 8], [2, 2, 2], 8);
        let b = Distribution::new([8, 8, 8], [1, 2, 1], 8); // 2 active
        let rs = ReshapeSpec::build(&a, &b);
        // Every rank sends somewhere; only ranks 0..2 receive.
        for r in 0..8 {
            assert!(!rs.sends[r].is_empty(), "rank {r} must send");
        }
        for r in 2..8 {
            assert!(rs.recvs[r].is_empty(), "inactive rank {r} must not receive");
        }
        // One group containing all flowing ranks.
        assert_eq!(rs.groups.len(), 1);
        assert_eq!(rs.groups[0].len(), 8);
    }

    #[test]
    fn reversed_matches_rebuilt_reverse() {
        for (ga, gb) in [
            ([1usize, 2, 4], [2usize, 1, 4]),
            ([2, 2, 2], [1, 2, 4]),
            ([2, 3, 1], [1, 2, 3]),
        ] {
            let a = Distribution::new([8, 9, 10], ga, 8);
            let b = Distribution::new([8, 9, 10], gb, 8);
            let fwd = ReshapeSpec::build(&a, &b);
            let derived = fwd.reversed();
            let rebuilt = ReshapeSpec::build(&b, &a);
            assert_eq!(derived.sends, rebuilt.sends);
            assert_eq!(derived.recvs, rebuilt.recvs);
            // Groups are the same components; ordering may differ, so
            // compare as sorted sets.
            let norm = |spec: &ReshapeSpec| {
                let mut gs = spec.groups.clone();
                gs.sort();
                gs
            };
            assert_eq!(norm(&derived), norm(&rebuilt));
        }
    }

    #[test]
    fn region_index_matches_naive_find() {
        let a = Distribution::new([8, 9, 10], [2, 3, 1], 6);
        let b = Distribution::new([8, 9, 10], [1, 2, 3], 6);
        let rs = ReshapeSpec::build(&a, &b);
        for g in &rs.groups {
            for &r in g {
                let sidx = rs.send_region_index(r, g);
                let ridx = rs.recv_region_index(r, g);
                for (i, &m) in g.iter().enumerate() {
                    let naive_s = rs.sends[r].iter().find(|(d, _)| *d == m).map(|(_, b)| b);
                    let naive_r = rs.recvs[r].iter().find(|(s, _)| *s == m).map(|(_, b)| b);
                    assert_eq!(sidx[i], naive_s, "send index rank {r} member {m}");
                    assert_eq!(ridx[i], naive_r, "recv index rank {r} member {m}");
                }
            }
        }
    }

    #[test]
    fn region_index_skips_non_members() {
        // Pencil groups of 2 out of 8 ranks: the index over a group must
        // not pick up flows to ranks outside it.
        let a = Distribution::new(n64(), [1, 2, 4], 8);
        let b = Distribution::new(n64(), [2, 1, 4], 8);
        let rs = ReshapeSpec::build(&a, &b);
        let g = &rs.groups[0];
        for &r in g {
            let idx = rs.send_region_index(r, g);
            assert_eq!(idx.len(), g.len());
            assert!(idx.iter().all(|o| o.is_some()), "dense within the group");
        }
    }

    #[test]
    fn validate_accepts_planner_output_and_rejects_corruption() {
        let a = Distribution::new(n64(), [2, 2, 2], 8);
        let b = Distribution::new(n64(), [1, 2, 4], 8);
        let rs = ReshapeSpec::build(&a, &b);
        assert_eq!(rs.validate(), Ok(()));

        // Drop one recv region: the matching send must be reported.
        let mut broken = rs.clone();
        let (src, _) = broken.recvs[0].remove(0);
        assert_eq!(
            broken.validate(),
            Err(ReshapeError::MissingRecvRegion { rank: 0, src })
        );

        // Drop one send region: the orphaned recv must be reported.
        let mut broken = rs.clone();
        let (dst, _) = broken.sends[1].remove(0);
        assert_eq!(
            broken.validate(),
            Err(ReshapeError::MissingSendRegion { rank: 1, dst })
        );

        // Disagreeing regions.
        let mut broken = rs.clone();
        let (d, region) = broken.sends[2][0];
        let shrunk = Box3::new(region.lo, [region.hi[0], region.hi[1], region.hi[2] - 1]);
        broken.sends[2][0] = (d, shrunk);
        assert_eq!(
            broken.validate(),
            Err(ReshapeError::RegionMismatch { rank: 2, dst: d })
        );

        // Duplicate peer.
        let mut broken = rs.clone();
        let dup = broken.sends[3][0];
        broken.sends[3].insert(0, dup);
        assert_eq!(
            broken.validate(),
            Err(ReshapeError::DuplicatePeer {
                rank: 3,
                peer: dup.0
            })
        );
    }

    #[test]
    fn recv_line_runs_partition_every_line_exactly_once() {
        // Brick → pencil (one group of 8) and pencil → pencil (groups of
        // 2–4): for every rank, axis, and chunk count, the run lists must
        // tile [0, lines) with disjoint, in-order runs — the transform-ahead
        // schedule relies on every next-axis line firing in exactly one
        // chunk.
        let cases = [
            ([2usize, 2, 2], [1usize, 2, 4], 0usize),
            ([1, 2, 4], [2, 1, 4], 1),
            ([2, 1, 4], [2, 4, 1], 2),
        ];
        for (ga, gb, axis) in cases {
            let a = Distribution::new([8, 9, 10], ga, 8);
            let b = Distribution::new([8, 9, 10], gb, 8);
            let rs = ReshapeSpec::build(&a, &b);
            for g in &rs.groups {
                for (me_sub, &r) in g.iter().enumerate() {
                    let to_box = b.boxes[r];
                    let lines = to_box.volume() / to_box.len(axis);
                    for k_eff in [1usize, 2, 3, 7] {
                        let runs = rs.recv_line_runs(r, g, me_sub, k_eff, &to_box, axis);
                        assert_eq!(runs.len(), k_eff);
                        let mut seen = vec![false; lines];
                        for per_chunk in &runs {
                            for &(lo, hi) in per_chunk {
                                assert!(lo < hi && hi <= lines, "run in bounds");
                                for (l, s) in seen.iter_mut().enumerate().take(hi).skip(lo) {
                                    assert!(!*s, "line {l} assigned twice");
                                    *s = true;
                                }
                            }
                        }
                        assert!(seen.iter().all(|&s| s), "every line covered");
                        if k_eff == 1 {
                            assert_eq!(runs[0], vec![(0, lines)], "k=1 is monolithic");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn apply_self_block_copies_overlap() {
        let old_box = Box3::new([0, 0, 0], [4, 4, 4]);
        let new_box = Box3::new([2, 0, 0], [6, 4, 4]);
        let old: Vec<C64> = (0..64).map(|i| C64::real(i as f64)).collect();
        let mut new = vec![C64::ZERO; 64];
        apply_self_block(&old_box, &old, &new_box, &mut new);
        // Global point (2,0,0): old index 2*16=32; new index 0.
        assert_eq!(new[0], C64::real(32.0));
        // Global point (3,1,2): old 3*16+1*4+2 = 54; new (1,1,2) = 16+4+2 = 22.
        assert_eq!(new[22], C64::real(54.0));
    }

    #[test]
    fn apply_self_block_coalescing_matches_pointwise_copy() {
        // Exercise every run-coalescing tier: fully merged (slab↔slab),
        // plane-merged (shared fastest axis), and per-row (pencil overlap
        // that spans neither box's fast axis fully).
        let cases = [
            (
                Box3::new([0, 0, 0], [4, 6, 5]),
                Box3::new([2, 0, 0], [7, 6, 5]),
            ),
            (
                Box3::new([0, 0, 0], [4, 6, 5]),
                Box3::new([0, 3, 0], [4, 9, 5]),
            ),
            (
                Box3::new([0, 0, 0], [4, 6, 5]),
                Box3::new([1, 2, 2], [5, 8, 9]),
            ),
        ];
        for (old_box, new_box) in cases {
            let old: Vec<C64> = (0..old_box.volume())
                .map(|i| C64::new(i as f64, -(i as f64)))
                .collect();
            let mut got = vec![C64::ZERO; new_box.volume()];
            apply_self_block(&old_box, &old, &new_box, &mut got);

            // Pointwise reference.
            let mut expect = vec![C64::ZERO; new_box.volume()];
            let overlap = old_box.intersect(&new_box);
            for i in overlap.lo[0]..overlap.hi[0] {
                for j in overlap.lo[1]..overlap.hi[1] {
                    for k in overlap.lo[2]..overlap.hi[2] {
                        expect[new_box.local_index([i, j, k])] =
                            old[old_box.local_index([i, j, k])];
                    }
                }
            }
            assert_eq!(got, expect, "old={old_box:?} new={new_box:?}");
        }
    }
}
