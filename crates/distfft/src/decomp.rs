//! Decomposition planning: which processor grids the FFT computes through.
//!
//! Paper Fig. 1: slabs (1-D process grid, one exchange), pencils (2-D
//! process grid, two exchanges), bricks (3-D input/output grids around the
//! pencil compute path, four exchanges total).

use crate::plan::PlanError;
use crate::procgrid::closest_factor_pair;

/// Algorithmic decomposition of the 3-D FFT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decomp {
    /// 1-D grid: a 2-D local FFT + one exchange + a 1-D local FFT.
    /// Scalability limited to `n1` processes (paper §I).
    Slabs,
    /// 2-D grid `(P, Q)`: three 1-D stages, two exchanges.
    Pencils,
    /// Pencil compute stages with brick-shaped (minimum-surface) I/O grids:
    /// four exchanges. The paper's "bricks" variant (fftMPI / SWFFT).
    Bricks,
}

impl Decomp {
    /// Human-readable name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Decomp::Slabs => "slabs",
            Decomp::Pencils => "pencils",
            Decomp::Bricks => "bricks",
        }
    }
}

/// One compute stage: the grid the data sits in and the axes transformed
/// while it is there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputeStage {
    /// Processor grid of this stage.
    pub grid: [usize; 3],
    /// Axes (0..3) transformed in this stage.
    pub axes: Vec<usize>,
}

/// The `P × Q` pencil grid of `active` ranks (the closest factor pair), or
/// [`PlanError::PencilLimit`] when it is too large to split a domain of
/// extents `n`.
pub fn pencil_grid(active: usize, n: [usize; 3]) -> Result<(usize, usize), PlanError> {
    let (p, q) = closest_factor_pair(active);
    if p <= n[0].max(1) * n[1].max(1) && q <= n[1].max(1) * n[2].max(1) {
        Ok((p, q))
    } else {
        Err(PlanError::PencilLimit { grid: (p, q), n })
    }
}

/// Builds the sequence of compute stages for `active` ranks over a domain of
/// extents `n`. Consecutive stages with identical grids are merged (this
/// happens for pencils when `P = 1`).
pub fn compute_stages(decomp: Decomp, active: usize, n: [usize; 3]) -> Vec<ComputeStage> {
    assert!(active > 0, "need at least one active rank");
    if active == 1 {
        return vec![ComputeStage {
            grid: [1, 1, 1],
            axes: vec![0, 1, 2],
        }];
    }
    let raw: Vec<ComputeStage> = match decomp {
        Decomp::Slabs => {
            assert!(
                active <= n[1] && active <= n[0],
                "slabs decomposition of {n:?} supports at most {} ranks, got {active} \
                 (the paper's N₂-process scalability limit)",
                n[1].min(n[0])
            );
            vec![
                ComputeStage {
                    grid: [1, active, 1],
                    axes: vec![0, 2],
                },
                ComputeStage {
                    grid: [active, 1, 1],
                    axes: vec![1],
                },
            ]
        }
        Decomp::Pencils | Decomp::Bricks => {
            let (p, q) = pencil_grid(active, n).unwrap_or_else(|e| panic!("{e}"));
            vec![
                ComputeStage {
                    grid: [1, p, q],
                    axes: vec![0],
                },
                ComputeStage {
                    grid: [p, 1, q],
                    axes: vec![1],
                },
                ComputeStage {
                    grid: [p, q, 1],
                    axes: vec![2],
                },
            ]
        }
    };

    // Merge consecutive identical grids.
    let mut merged: Vec<ComputeStage> = Vec::with_capacity(raw.len());
    for stage in raw {
        match merged.last_mut() {
            Some(prev) if prev.grid == stage.grid => prev.axes.extend(stage.axes),
            _ => merged.push(stage),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pencil_stages_cover_all_axes_once() {
        let st = compute_stages(Decomp::Pencils, 24, [64, 64, 64]);
        assert_eq!(st.len(), 3);
        assert_eq!(st[0].grid, [1, 4, 6]);
        assert_eq!(st[1].grid, [4, 1, 6]);
        assert_eq!(st[2].grid, [4, 6, 1]);
        let mut axes: Vec<usize> = st.iter().flat_map(|s| s.axes.clone()).collect();
        axes.sort_unstable();
        assert_eq!(axes, vec![0, 1, 2]);
    }

    #[test]
    fn slab_stages() {
        let st = compute_stages(Decomp::Slabs, 8, [64, 64, 64]);
        assert_eq!(st.len(), 2);
        assert_eq!(st[0].grid, [1, 8, 1]);
        assert_eq!(st[0].axes, vec![0, 2]);
        assert_eq!(st[1].grid, [8, 1, 1]);
        assert_eq!(st[1].axes, vec![1]);
    }

    #[test]
    fn single_rank_collapses_to_local_fft() {
        let st = compute_stages(Decomp::Pencils, 1, [16, 16, 16]);
        assert_eq!(st.len(), 1);
        assert_eq!(st[0].grid, [1, 1, 1]);
        assert_eq!(st[0].axes, vec![0, 1, 2]);
    }

    #[test]
    fn prime_rank_count_merges_degenerate_pencil_stages() {
        // Π = 7 (prime): P = 1, so the first two pencil grids coincide.
        let st = compute_stages(Decomp::Pencils, 7, [16, 16, 16]);
        assert_eq!(st.len(), 2);
        assert_eq!(st[0].grid, [1, 1, 7]);
        assert_eq!(st[0].axes, vec![0, 1]);
        assert_eq!(st[1].grid, [1, 7, 1]);
        assert_eq!(st[1].axes, vec![2]);
    }

    #[test]
    #[should_panic(expected = "scalability limit")]
    fn slabs_enforce_scaling_limit() {
        let _ = compute_stages(Decomp::Slabs, 128, [64, 64, 64]);
    }

    #[test]
    fn bricks_use_pencil_compute_path() {
        let a = compute_stages(Decomp::Pencils, 12, [32, 32, 32]);
        let b = compute_stages(Decomp::Bricks, 12, [32, 32, 32]);
        assert_eq!(a, b);
    }
}
