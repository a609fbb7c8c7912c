//! Index-box algebra: the bookkeeping layer of every reshape.
//!
//! A [`Box3`] is a half-open axis-aligned block `[lo, hi)` of the global
//! `n0 × n1 × n2` index space. Each rank owns one box per distribution;
//! reshapes move the intersection of (my old box, your new box) between
//! ranks.

use fftkern::C64;

/// A half-open 3-D index box `[lo[d], hi[d])`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Box3 {
    /// Inclusive lower corner.
    pub lo: [usize; 3],
    /// Exclusive upper corner.
    pub hi: [usize; 3],
}

impl Box3 {
    /// An empty box.
    pub const EMPTY: Box3 = Box3 {
        lo: [0; 3],
        hi: [0; 3],
    };

    /// Creates a box, normalizing inverted extents to empty.
    pub fn new(lo: [usize; 3], hi: [usize; 3]) -> Box3 {
        let b = Box3 { lo, hi };
        if b.is_empty() {
            Box3::EMPTY
        } else {
            b
        }
    }

    /// The whole `[0, n)` domain.
    pub fn whole(n: [usize; 3]) -> Box3 {
        Box3::new([0; 3], n)
    }

    /// Extent along dimension `d`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`d` is an axis, below 3, the length of `lo` and `hi`"
    )]
    pub fn len(&self, d: usize) -> usize {
        self.hi[d].saturating_sub(self.lo[d])
    }

    /// Extents of all three dimensions.
    pub fn shape(&self) -> [usize; 3] {
        [self.len(0), self.len(1), self.len(2)]
    }

    /// Number of elements.
    pub fn volume(&self) -> usize {
        self.len(0) * self.len(1) * self.len(2)
    }

    /// True when the box holds no elements.
    #[expect(
        clippy::indexing_slicing,
        reason = "`d` ranges over 0..3, the length of `lo` and `hi`"
    )]
    pub fn is_empty(&self) -> bool {
        (0..3).any(|d| self.hi[d] <= self.lo[d])
    }

    /// Surface area (sum of face areas) — the quantity minimum-surface
    /// splitting minimizes for load-balanced brick grids.
    pub fn surface(&self) -> usize {
        let s = self.shape();
        2 * (s[0] * s[1] + s[1] * s[2] + s[0] * s[2])
    }

    /// Intersection of two boxes (empty if disjoint).
    #[expect(
        clippy::indexing_slicing,
        reason = "`d` ranges over 0..3, the length of every corner"
    )]
    pub fn intersect(&self, other: &Box3) -> Box3 {
        let mut lo = [0; 3];
        let mut hi = [0; 3];
        for d in 0..3 {
            lo[d] = self.lo[d].max(other.lo[d]);
            hi[d] = self.hi[d].min(other.hi[d]);
            if hi[d] <= lo[d] {
                return Box3::EMPTY;
            }
        }
        Box3 { lo, hi }
    }

    /// True when `p` lies inside the box.
    #[expect(
        clippy::indexing_slicing,
        reason = "`d` ranges over 0..3, the length of `p`, `lo` and `hi`"
    )]
    pub fn contains(&self, p: [usize; 3]) -> bool {
        (0..3).all(|d| self.lo[d] <= p[d] && p[d] < self.hi[d])
    }

    /// Row-major flat index of global point `p` within this box's local
    /// storage.
    #[inline]
    pub fn local_index(&self, p: [usize; 3]) -> usize {
        debug_assert!(self.contains(p), "point {p:?} outside box {self:?}");
        ((p[0] - self.lo[0]) * self.len(1) + (p[1] - self.lo[1])) * self.len(2)
            + (p[2] - self.lo[2])
    }

    /// Copies the elements of `region` (in global coordinates, a sub-box of
    /// both `self` and `dst_box`) from this box's local storage into a fresh
    /// contiguous buffer (row-major over `region`).
    pub fn extract(&self, data: &[C64], region: &Box3) -> Vec<C64> {
        let mut out = Vec::with_capacity(region.volume());
        self.extract_into(data, region, &mut out);
        out
    }

    /// Length (in elements) of one contiguous run when walking `region`
    /// inside this box's row-major storage, run-coalesced: a region that
    /// spans the full fastest axis merges whole `j`-planes (and, if it also
    /// spans axis 1, the entire region) into single `memcpy`-sized runs.
    /// Slab reshapes hit the fully-merged case, pencil reshapes the
    /// plane-merged one — turning the per-row copy loop into a handful of
    /// bulk copies.
    fn run_len(&self, region: &Box3) -> usize {
        let full2 = region.lo[2] == self.lo[2] && region.hi[2] == self.hi[2];
        let full1 = region.lo[1] == self.lo[1] && region.hi[1] == self.hi[1];
        if full2 && full1 {
            region.volume()
        } else if full2 {
            region.len(1) * region.len(2)
        } else {
            region.len(2)
        }
    }

    /// Appends the elements of `region` (row-major) onto `out` without
    /// allocating a fresh buffer — the zero-churn form of [`extract`] used
    /// by the pooled send-packing path. Runs are coalesced per
    /// [`run_len`](Box3::run_len).
    ///
    /// [`extract`]: Box3::extract
    #[expect(
        clippy::indexing_slicing,
        reason = "`region` is a sub-box of `self`, so each run from `local_index` stays inside `data`'s `self.volume()` elements"
    )]
    pub fn extract_into(&self, data: &[C64], region: &Box3, out: &mut Vec<C64>) {
        debug_assert_eq!(data.len(), self.volume());
        let vol = region.volume();
        if vol == 0 {
            return;
        }
        out.reserve(vol);
        let run = self.run_len(region);
        let mut copied = 0;
        for i in region.lo[0]..region.hi[0] {
            let mut j = region.lo[1];
            while j < region.hi[1] {
                let base = self.local_index([i, j, region.lo[2]]);
                out.extend_from_slice(&data[base..base + run]);
                copied += run;
                if copied >= vol {
                    return;
                }
                j += (run / region.len(2)).max(1);
            }
        }
    }

    /// Deposits a contiguous `block` (as produced by [`extract`]) into this
    /// box's local storage at `region`. Runs are coalesced per
    /// [`run_len`](Box3::run_len).
    ///
    /// [`extract`]: Box3::extract
    #[expect(
        clippy::indexing_slicing,
        reason = "`region` is a sub-box of `self`, so each run stays inside `data` and inside `block`'s `region.volume()` elements"
    )]
    pub fn deposit(&self, data: &mut [C64], region: &Box3, block: &[C64]) {
        debug_assert_eq!(data.len(), self.volume());
        debug_assert_eq!(block.len(), region.volume());
        if block.is_empty() {
            return;
        }
        let run = self.run_len(region);
        let mut src = 0;
        for i in region.lo[0]..region.hi[0] {
            let mut j = region.lo[1];
            while j < region.hi[1] {
                let base = self.local_index([i, j, region.lo[2]]);
                data[base..base + run].copy_from_slice(&block[src..src + run]);
                src += run;
                if src >= block.len() {
                    return;
                }
                j += (run / region.len(2)).max(1);
            }
        }
    }

    /// Splits `[0, n)` into `parts` contiguous chunks along one axis,
    /// distributing the remainder over the leading chunks (heFFTe/fftMPI
    /// balancing). Returns the `(lo, hi)` of chunk `idx`.
    pub fn chunk(n: usize, parts: usize, idx: usize) -> (usize, usize) {
        assert!(parts > 0 && idx < parts, "bad chunk request {idx}/{parts}");
        let base = n / parts;
        let rem = n % parts;
        let lo = idx * base + idx.min(rem);
        let extra = usize::from(idx < rem);
        (lo, lo + base + extra)
    }

    /// Inverse of [`Box3::chunk`]: the chunk index containing coordinate
    /// `x` (which must lie in `[0, n)`). O(1) — the kernel of the
    /// peer-lookup fast path that keeps reshape planning O(Π·peers) instead
    /// of O(Π²) at thousands of ranks.
    pub fn chunk_of(n: usize, parts: usize, x: usize) -> usize {
        debug_assert!(x < n, "coordinate {x} outside [0, {n})");
        let base = n / parts;
        let rem = n % parts;
        if base == 0 {
            // n < parts: each of the first n chunks holds one element.
            return x;
        }
        let split = rem * (base + 1);
        if x < split {
            x / (base + 1)
        } else {
            rem + (x - split) / base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lo: [usize; 3], hi: [usize; 3]) -> Box3 {
        Box3::new(lo, hi)
    }

    #[test]
    fn volume_shape_surface() {
        let x = b([1, 2, 3], [4, 6, 11]);
        assert_eq!(x.shape(), [3, 4, 8]);
        assert_eq!(x.volume(), 96);
        assert_eq!(x.surface(), 2 * (12 + 32 + 24));
        assert!(!x.is_empty());
        assert!(Box3::EMPTY.is_empty());
        assert_eq!(Box3::EMPTY.volume(), 0);
    }

    #[test]
    fn intersection_cases() {
        let a = b([0, 0, 0], [4, 4, 4]);
        let c = b([2, 2, 2], [6, 6, 6]);
        assert_eq!(a.intersect(&c), b([2, 2, 2], [4, 4, 4]));
        // Disjoint.
        let d = b([4, 0, 0], [8, 4, 4]);
        assert!(a.intersect(&d).is_empty());
        // Touching at a face is empty (half-open).
        assert!(a.intersect(&b([0, 4, 0], [4, 8, 4])).is_empty());
        // Self-intersection is identity.
        assert_eq!(a.intersect(&a), a);
    }

    #[test]
    fn local_indexing_is_row_major() {
        let x = b([10, 20, 30], [12, 23, 34]);
        assert_eq!(x.local_index([10, 20, 30]), 0);
        assert_eq!(x.local_index([10, 20, 31]), 1);
        assert_eq!(x.local_index([10, 21, 30]), 4);
        assert_eq!(x.local_index([11, 20, 30]), 12);
        assert_eq!(x.local_index([11, 22, 33]), 12 + 8 + 3);
    }

    #[test]
    fn extract_deposit_roundtrip() {
        let owner = b([0, 0, 0], [3, 4, 5]);
        let data: Vec<C64> = (0..60).map(|i| C64::real(i as f64)).collect();
        let region = b([1, 1, 2], [3, 3, 4]);
        let block = owner.extract(&data, &region);
        assert_eq!(block.len(), region.volume());
        // First element of the block is global (1,1,2) = flat 1*20+1*5+2 = 27.
        assert_eq!(block[0], C64::real(27.0));

        let mut target = vec![C64::ZERO; 60];
        owner.deposit(&mut target, &region, &block);
        for i in 1..3 {
            for j in 1..3 {
                for k in 2..4 {
                    let idx = owner.local_index([i, j, k]);
                    assert_eq!(target[idx], data[idx]);
                }
            }
        }
        // Nothing outside the region was touched.
        assert_eq!(target[0], C64::ZERO);
    }

    #[test]
    fn chunk_balances_remainder_to_leading_parts() {
        // 10 into 3: 4, 3, 3.
        assert_eq!(Box3::chunk(10, 3, 0), (0, 4));
        assert_eq!(Box3::chunk(10, 3, 1), (4, 7));
        assert_eq!(Box3::chunk(10, 3, 2), (7, 10));
        // Exact division.
        assert_eq!(Box3::chunk(8, 4, 3), (6, 8));
        // More parts than elements: trailing chunks empty.
        assert_eq!(Box3::chunk(2, 4, 0), (0, 1));
        assert_eq!(Box3::chunk(2, 4, 1), (1, 2));
        assert_eq!(Box3::chunk(2, 4, 3), (2, 2));
    }

    #[test]
    fn chunk_of_inverts_chunk() {
        for n in [1usize, 2, 7, 16, 100, 513] {
            for parts in [1usize, 2, 3, 5, 8, 24] {
                for idx in 0..parts {
                    let (lo, hi) = Box3::chunk(n, parts, idx);
                    for x in lo..hi {
                        assert_eq!(
                            Box3::chunk_of(n, parts, x),
                            idx,
                            "n={n} parts={parts} x={x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chunks_partition_the_axis() {
        for n in [1usize, 7, 16, 100] {
            for parts in [1usize, 2, 3, 5, 8] {
                let mut cursor = 0;
                for idx in 0..parts {
                    let (lo, hi) = Box3::chunk(n, parts, idx);
                    assert_eq!(lo, cursor, "gap at n={n} parts={parts} idx={idx}");
                    assert!(hi >= lo);
                    cursor = hi;
                }
                assert_eq!(cursor, n);
            }
        }
    }
}
