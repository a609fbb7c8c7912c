//! Processor grids and distributions.
//!
//! Implements the grid choices behind Table III of the paper:
//!
//! * **pencil grids** `(1,P,Q)`, `(P,1,Q)`, `(P,Q,1)` with `P·Q = Π` and
//!   `P ≤ Q` the closest factor pair (e.g. Π=768 ⇒ 24×32);
//! * **brick grids** from the *minimum-surface splitting* heuristic used by
//!   real-world simulations for load-balanced input/output (blue grids in
//!   Table III, e.g. Π=768 ⇒ 8×8×12);
//! * **slab grids** `(1,Π,1)` / `(Π,1,1)`.

use crate::boxes::Box3;

/// A distribution of the global `n0 × n1 × n2` domain over `Π` ranks via a
/// 3-D processor grid; ranks beyond `active` hold empty boxes (the *grid
/// shrinking* mechanism of Algorithm 1, line 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Distribution {
    /// Processor grid extents per axis (product = number of active ranks).
    pub grid: [usize; 3],
    /// One box per rank (empty for inactive ranks).
    pub boxes: Vec<Box3>,
}

impl Distribution {
    /// Splits `n` over `grid` for `nranks` ranks. `grid` must multiply to at
    /// most `nranks`; ranks past the product are inactive (empty boxes).
    pub fn new(n: [usize; 3], grid: [usize; 3], nranks: usize) -> Distribution {
        let active: usize = grid.iter().product();
        assert!(active > 0, "degenerate processor grid {grid:?}");
        assert!(
            active <= nranks,
            "grid {grid:?} needs {active} ranks but only {nranks} exist"
        );
        let mut boxes = Vec::with_capacity(nranks);
        for r in 0..nranks {
            if r >= active {
                boxes.push(Box3::EMPTY);
                continue;
            }
            // Row-major rank -> grid coordinates.
            let c2 = r % grid[2];
            let c1 = (r / grid[2]) % grid[1];
            let c0 = r / (grid[1] * grid[2]);
            let coords = [c0, c1, c2];
            let mut lo = [0; 3];
            let mut hi = [0; 3];
            for d in 0..3 {
                let (l, h) = Box3::chunk(n[d], grid[d], coords[d]);
                lo[d] = l;
                hi[d] = h;
            }
            boxes.push(Box3::new(lo, hi));
        }
        Distribution { grid, boxes }
    }

    /// Builds a distribution from **user-specified boxes**, one per rank —
    /// the general input/output grids of real-world simulations ("the only
    /// libraries allowing general input/output grids are fftMPI, heFFTe and
    /// SWFFT", §III). The boxes must be pairwise disjoint and exactly cover
    /// the `n` domain; empty boxes mark ranks that hold no data. The `grid`
    /// field is recorded as `[0, 0, 0]` (irregular).
    pub fn from_boxes(n: [usize; 3], boxes: Vec<Box3>) -> Distribution {
        let domain = Box3::whole(n);
        let mut covered = 0usize;
        for (r, b) in boxes.iter().enumerate() {
            if b.is_empty() {
                continue;
            }
            assert_eq!(
                b.intersect(&domain),
                *b,
                "rank {r} box {b:?} leaves the {n:?} domain"
            );
            covered += b.volume();
        }
        assert_eq!(
            covered,
            domain.volume(),
            "boxes cover {covered} of {} domain elements",
            domain.volume()
        );
        for i in 0..boxes.len() {
            for j in (i + 1)..boxes.len() {
                assert!(
                    boxes[i].intersect(&boxes[j]).is_empty(),
                    "rank boxes {i} and {j} overlap"
                );
            }
        }
        Distribution {
            grid: [0, 0, 0],
            boxes,
        }
    }

    /// True when this distribution came from a regular processor grid (the
    /// fast peer-lookup path applies).
    pub fn is_regular(&self) -> bool {
        self.grid.iter().all(|&g| g > 0)
    }

    /// Ranks whose boxes overlap `b`, via direct chunk-index arithmetic for
    /// regular grids (O(peers)) with a linear-scan fallback for irregular
    /// box sets. The returned ranks are sorted ascending.
    pub fn ranks_overlapping(&self, n: [usize; 3], b: &Box3) -> Vec<usize> {
        if b.is_empty() {
            return Vec::new();
        }
        if !self.is_regular() {
            return (0..self.boxes.len())
                .filter(|&r| !self.boxes[r].intersect(b).is_empty())
                .collect();
        }
        let mut lo = [0usize; 3];
        let mut hi = [0usize; 3];
        for d in 0..3 {
            lo[d] = Box3::chunk_of(n[d], self.grid[d], b.lo[d]);
            hi[d] = Box3::chunk_of(n[d], self.grid[d], b.hi[d] - 1);
        }
        let mut out =
            Vec::with_capacity((hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1) * (hi[2] - lo[2] + 1));
        for c0 in lo[0]..=hi[0] {
            for c1 in lo[1]..=hi[1] {
                for c2 in lo[2]..=hi[2] {
                    out.push((c0 * self.grid[1] + c1) * self.grid[2] + c2);
                }
            }
        }
        out
    }

    /// Number of ranks holding data.
    pub fn active_ranks(&self) -> usize {
        self.boxes.iter().filter(|b| !b.is_empty()).count()
    }

    /// The box of rank `r`.
    pub fn rank_box(&self, r: usize) -> &Box3 {
        &self.boxes[r]
    }

    /// Axes fully local to every active rank (grid extent 1) — the axes a
    /// local FFT can transform in this distribution.
    pub fn local_axes(&self) -> Vec<usize> {
        (0..3).filter(|&d| self.grid[d] == 1).collect()
    }

    /// Total elements across ranks (must equal the domain volume).
    pub fn total_volume(&self) -> usize {
        self.boxes.iter().map(|b| b.volume()).sum()
    }
}

/// Closest factor pair `P ≤ Q` with `P·Q = n` (the paper's pencil grids:
/// Π=768 ⇒ (24, 32)).
pub fn closest_factor_pair(n: usize) -> (usize, usize) {
    assert!(n > 0);
    let mut p = (n as f64).sqrt() as usize;
    while p >= 1 {
        if n.is_multiple_of(p) {
            return (p, n / p);
        }
        p -= 1;
    }
    (1, n)
}

/// Minimum-surface factorization of `n` into three factors `(a, b, c)`:
/// among all factor triples, minimizes the surface of the resulting local
/// brick of an `dims` domain; ties broken toward the most cubic
/// (lexicographically smallest sorted) triple. For cubic domains this
/// reduces to minimizing `a + b + c`, which reproduces every brick grid in
/// Table III.
pub fn min_surface_grid(n: usize, dims: [usize; 3]) -> [usize; 3] {
    assert!(n > 0);
    let mut best: Option<([usize; 3], f64)> = None;
    let mut a = 1;
    while a * a * a <= n {
        if n.is_multiple_of(a) {
            let m = n / a;
            let mut b = a;
            while b * b <= m {
                if m.is_multiple_of(b) {
                    let c = m / b;
                    // Local block shape for this (sorted ascending) triple.
                    let triple = [a, b, c];
                    // Evaluate surface for the best axis assignment: assign
                    // the largest factor to the largest dimension.
                    let mut dsort: Vec<(usize, usize)> = dims.iter().copied().enumerate().collect();
                    dsort.sort_by_key(|&(_, d)| d);
                    let mut assigned = [1usize; 3];
                    for (k, &(axis, _)) in dsort.iter().enumerate() {
                        assigned[axis] = triple[k];
                    }
                    let local = [
                        dims[0] as f64 / assigned[0] as f64,
                        dims[1] as f64 / assigned[1] as f64,
                        dims[2] as f64 / assigned[2] as f64,
                    ];
                    let surf = local[0] * local[1] + local[1] * local[2] + local[0] * local[2];
                    let better = match &best {
                        None => true,
                        Some((prev, ps)) => {
                            surf < *ps - 1e-9 || ((surf - *ps).abs() <= 1e-9 && assigned < *prev)
                        }
                    };
                    if better {
                        best = Some((assigned, surf));
                    }
                }
                b += 1;
            }
        }
        a += 1;
    }
    #[expect(clippy::expect_used, reason = "the 1 x n factorization always exists")]
    best.expect("n >= 1 always has the trivial factorization").0
}

/// The paper's Table III grid sequence for `Π` GPUs on an `n³`-like domain:
/// `[input brick, (1,P,Q), (P,1,Q), (P,Q,1), output brick]`.
pub fn table3_sequence(nranks: usize, dims: [usize; 3]) -> Vec<[usize; 3]> {
    let (p, q) = closest_factor_pair(nranks);
    let brick = min_surface_grid(nranks, dims);
    vec![brick, [1, p, q], [p, 1, q], [p, q, 1], brick]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closest_pairs_match_table3() {
        // (Π, P, Q) rows of Table III.
        let rows = [
            (6, 2, 3),
            (12, 3, 4),
            (24, 4, 6),
            (48, 6, 8),
            (96, 8, 12),
            (192, 12, 16),
            (384, 16, 24),
            (768, 24, 32),
            (1536, 32, 48),
            (3072, 48, 64),
        ];
        for (n, p, q) in rows {
            assert_eq!(closest_factor_pair(n), (p, q), "Π={n}");
        }
    }

    #[test]
    fn min_surface_matches_table3_bricks() {
        // Table III brick grids (as unordered factor multisets — the paper
        // lists some rows in non-sorted order, e.g. (16, 8, 12)).
        let rows: [(usize, [usize; 3]); 10] = [
            (6, [1, 2, 3]),
            (12, [2, 2, 3]),
            (24, [2, 3, 4]),
            (48, [3, 4, 4]),
            (96, [4, 4, 6]),
            (192, [4, 6, 8]),
            (384, [6, 8, 8]),
            (768, [8, 8, 12]),
            (1536, [8, 12, 16]),
            (3072, [12, 16, 16]),
        ];
        for (n, expect) in rows {
            let mut got = min_surface_grid(n, [512, 512, 512]);
            got.sort_unstable();
            assert_eq!(got, expect, "Π={n}");
        }
    }

    #[test]
    fn table3_sequence_shape() {
        let seq = table3_sequence(768, [512, 512, 512]);
        assert_eq!(seq.len(), 5);
        assert_eq!(seq[1], [1, 24, 32]);
        assert_eq!(seq[2], [24, 1, 32]);
        assert_eq!(seq[3], [24, 32, 1]);
        assert_eq!(seq[0], seq[4]);
        assert_eq!(seq[0].iter().product::<usize>(), 768);
    }

    #[test]
    fn distribution_partitions_domain() {
        let n = [8, 9, 10];
        let d = Distribution::new(n, [2, 3, 2], 12);
        assert_eq!(d.total_volume(), 720);
        assert_eq!(d.active_ranks(), 12);
        // Boxes are pairwise disjoint.
        for i in 0..12 {
            for j in (i + 1)..12 {
                assert!(
                    d.boxes[i].intersect(&d.boxes[j]).is_empty(),
                    "ranks {i},{j} overlap"
                );
            }
        }
    }

    #[test]
    fn inactive_ranks_hold_empty_boxes() {
        // Grid shrinking: 12-rank world, compute fits in a 2x2x1 grid.
        let d = Distribution::new([16, 16, 16], [2, 2, 1], 12);
        assert_eq!(d.active_ranks(), 4);
        assert_eq!(d.total_volume(), 16 * 16 * 16);
        for r in 4..12 {
            assert!(d.boxes[r].is_empty());
        }
    }

    #[test]
    fn local_axes_reflect_grid() {
        let d = Distribution::new([8, 8, 8], [1, 2, 4], 8);
        assert_eq!(d.local_axes(), vec![0]);
        let s = Distribution::new([8, 8, 8], [1, 8, 1], 8);
        assert_eq!(s.local_axes(), vec![0, 2]);
    }

    #[test]
    fn pencil_grid_boxes_are_full_pencils() {
        let n = [8, 8, 8];
        let d = Distribution::new(n, [1, 2, 4], 8);
        for b in &d.boxes {
            assert_eq!(b.len(0), 8, "axis 0 must be fully local in (1,P,Q)");
        }
    }

    #[test]
    fn min_surface_prefers_splitting_long_axis() {
        // A 512x512x64 slab-ish domain: the grid should avoid cutting the
        // short axis.
        let g = min_surface_grid(16, [512, 512, 64]);
        assert_eq!(g.iter().product::<usize>(), 16);
        assert!(g[2] <= g[0] && g[2] <= g[1], "short axis over-split: {g:?}");
    }

    #[test]
    fn ranks_overlapping_matches_brute_force() {
        let n = [17usize, 9, 23];
        for grid in [[2usize, 3, 4], [1, 5, 2], [4, 1, 1], [3, 3, 3]] {
            let nranks: usize = grid.iter().product();
            let d = Distribution::new(n, grid, nranks);
            for probe in [
                Box3::new([0, 0, 0], [5, 4, 7]),
                Box3::new([3, 2, 10], [17, 9, 23]),
                Box3::new([8, 4, 11], [9, 5, 12]),
                Box3::EMPTY,
            ] {
                let fast = d.ranks_overlapping(n, &probe);
                let brute: Vec<usize> = (0..nranks)
                    .filter(|&r| !d.boxes[r].intersect(&probe).is_empty())
                    .collect();
                assert_eq!(fast, brute, "grid {grid:?} probe {probe:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn grid_larger_than_world_rejected() {
        let _ = Distribution::new([8, 8, 8], [4, 4, 4], 12);
    }
}
