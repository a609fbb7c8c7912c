//! FFT plan construction: the paper's Algorithm 1 as a data structure.
//!
//! A plan is a sequence of [`Distribution`]s — input grid, compute grids,
//! output grid — with a [`ReshapeSpec`] between each pair and a set of axes
//! transformed at each compute stage. Everything the paper tunes is an
//! option here:
//!
//! * decomposition (slabs / pencils / bricks), §IV-A;
//! * exchange backend (Alltoall / Alltoallv / Alltoallw / P2P), §IV-B;
//! * contiguous ("transposed") vs strided local FFTs, Figs. 6, 7, 10;
//! * grid shrinking to `l_p < n_p` ranks, Algorithm 1 line 2;
//! * batched transforms with pipeline chunking, Fig. 13.

use fftkern::kernel_model::{KernelTimeModel, LayoutKind};
use simgrid::MachineSpec;

use crate::decomp::{compute_stages, Decomp};
use crate::procgrid::{min_surface_grid, Distribution};
use crate::reshape::ReshapeSpec;

/// MPI exchange backend for the reshapes (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommBackend {
    /// Padded `MPI_Alltoall`: every block padded to the group maximum.
    AllToAll,
    /// `MPI_Alltoallv` with exact counts.
    AllToAllV,
    /// `MPI_Alltoallw` on sub-array datatypes (Algorithm 2) — no pack or
    /// unpack kernel is charged; MPI pays per-message datatype assembly.
    AllToAllW,
    /// Non-blocking `MPI_Isend`/`MPI_Irecv`/`MPI_Waitany`.
    P2p,
    /// Blocking `MPI_Send` + `MPI_Irecv`.
    P2pBlocking,
}

impl CommBackend {
    /// The MPI routine label used in the paper's figures.
    pub fn routine(&self) -> &'static str {
        match self {
            CommBackend::AllToAll => "MPI_Alltoall",
            CommBackend::AllToAllV => "MPI_Alltoallv",
            CommBackend::AllToAllW => "MPI_Alltoallw",
            CommBackend::P2p => "MPI_Isend/Irecv",
            CommBackend::P2pBlocking => "MPI_Send/Irecv",
        }
    }

    /// True for the two point-to-point flavors.
    pub fn is_p2p(&self) -> bool {
        matches!(self, CommBackend::P2p | CommBackend::P2pBlocking)
    }

    /// True when the backend needs caller-side pack/unpack kernels
    /// (`Alltoallw` handles datatypes inside MPI — the ~10 % the paper says
    /// Algorithm 2 saves).
    pub fn needs_pack(&self) -> bool {
        !matches!(self, CommBackend::AllToAllW)
    }
}

/// Shape of the user-facing input/output distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoLayout {
    /// Brick-shaped grids from minimum-surface splitting — "the type of
    /// input from real-world simulations" (Table III blue grids). Adds the
    /// brick→pencil and pencil→brick reshapes.
    Brick,
    /// Input/output match the first/last compute grids (pencil- or
    /// slab-shaped I/O): no boundary reshapes.
    Matching,
}

/// Everything tunable about a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FftOptions {
    /// Decomposition (paper Fig. 1).
    pub decomp: Decomp,
    /// Exchange backend for every reshape.
    pub backend: CommBackend,
    /// Input/output grid shape.
    pub io: IoLayout,
    /// Contiguous ("transposed") local FFTs — pack into stride-1 layout and
    /// pay more unpack, vs strided FFT kernels straight off the wire.
    pub contiguous_fft: bool,
    /// Grid shrinking: remap onto the first `l_p` ranks for the compute
    /// (Algorithm 1 line 2).
    pub shrink_to: Option<usize>,
    /// Independent transforms per execution (batched 3-D FFT).
    pub batch: usize,
    /// Pipeline chunks the batch is split into for communication/compute
    /// overlap (Fig. 13). Clamped to `batch`.
    pub pipeline_chunks: usize,
    /// Per-peer chunks each reshape exchange is split into so packing,
    /// sends, unpacking, and the *next axis transform* overlap (pipelined
    /// reshapes + transform-ahead; DESIGN.md §14). `1` = the monolithic
    /// pack → exchange → unpack path. `0` = model-driven auto-selection
    /// (argmin of the extended pipeline model; DESIGN.md §14). Clamped per
    /// group to `peers` (= group size − 1); groups of 2 never chunk.
    /// The executor and the dry run both read it from here and nowhere
    /// else. All four backends honor it: padded `AllToAll` chunks its
    /// uniform blocks and `AllToAllW` chunks sub-array datatype delivery
    /// (both on the posted-scatter schedule), alongside the `AllToAllV` and
    /// point-to-point paths from DESIGN.md §14.
    pub reshape_chunks: usize,
}

impl Default for FftOptions {
    fn default() -> Self {
        FftOptions {
            decomp: Decomp::Pencils,
            backend: CommBackend::AllToAllV,
            io: IoLayout::Brick,
            contiguous_fft: false,
            shrink_to: None,
            batch: 1,
            pipeline_chunks: 4,
            reshape_chunks: 1,
        }
    }
}

/// Failure-injection lookup: the compute slowdown factor of `rank` in a
/// `(rank, factor)` list (1.0 when absent). Applied to every GPU kernel
/// duration of that rank by both executors; the network is unaffected.
pub fn slowdown_factor(slowdowns: &[(usize, f64)], rank: usize) -> f64 {
    slowdowns
        .iter()
        .find(|(r, _)| *r == rank)
        .map(|(_, f)| *f)
        .unwrap_or(1.0)
}

/// Scales a kernel duration by a rank's slowdown factor.
pub fn slowed_ns(slowdowns: &[(usize, f64)], rank: usize, ns: u64) -> u64 {
    let f = slowdown_factor(slowdowns, rank);
    if f == 1.0 {
        ns
    } else {
        (ns as f64 * f).round() as u64
    }
}

/// Extra cost factor of a "transposing" unpack (contiguous-FFT mode deposits
/// received blocks in transposed order so the next FFT reads stride-1).
pub const TRANSPOSED_UNPACK_NUM: u64 = 23;
/// Denominator of the transposed-unpack factor (23/20 = 1.15×).
pub const TRANSPOSED_UNPACK_DEN: u64 = 20;

/// One step of plan execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Apply reshape `idx` (index into [`FftPlan::reshapes`]), moving from
    /// distribution `idx` to `idx + 1`.
    Reshape(usize),
    /// Batched 1-D FFTs along `axis` while resident in distribution
    /// `dist` (index into [`FftPlan::dists`]).
    LocalFft {
        /// Distribution the data currently lives in.
        dist: usize,
        /// Axis to transform.
        axis: usize,
    },
}

/// A fully-built distributed FFT plan.
#[derive(Debug, Clone)]
pub struct FftPlan {
    /// Global transform extents.
    pub n: [usize; 3],
    /// World size (1 rank per GPU).
    pub nranks: usize,
    /// Ranks actually computing (= `nranks` unless shrunk).
    pub active: usize,
    /// Plan options.
    pub opts: FftOptions,
    /// Distribution sequence: input, compute stages, output.
    pub dists: Vec<Distribution>,
    /// Reshape `i` maps `dists[i]` → `dists[i+1]`.
    pub reshapes: Vec<ReshapeSpec>,
    /// Reverse reshapes (`dists[i+1]` → `dists[i]`) for the inverse
    /// transform.
    pub reshapes_rev: Vec<ReshapeSpec>,
    /// Forward execution steps; the inverse runs them mirrored.
    pub steps: Vec<Step>,
}

impl std::fmt::Display for FftPlan {
    /// heFFTe-style plan summary: the distribution sequence with the axes
    /// transformed at each stage and the exchange backend.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "FFT plan: {}x{}x{} c2c on {} ranks ({} active), {} / {}",
            self.n[0],
            self.n[1],
            self.n[2],
            self.nranks,
            self.active,
            self.opts.decomp.name(),
            self.opts.backend.routine()
        )?;
        for (i, d) in self.dists.iter().enumerate() {
            let grid = if d.is_regular() {
                format!("({}, {}, {})", d.grid[0], d.grid[1], d.grid[2])
            } else {
                "(irregular)".to_string()
            };
            let axes: Vec<String> = self
                .steps
                .iter()
                .filter_map(|s| match s {
                    Step::LocalFft { dist, axis } if *dist == i => Some(axis.to_string()),
                    _ => None,
                })
                .collect();
            let role = if axes.is_empty() {
                "I/O".to_string()
            } else {
                format!("FFT axis {}", axes.join(", "))
            };
            writeln!(f, "  stage {i}: grid {grid:<14} {role}")?;
            if i + 1 < self.dists.len() {
                let label = if self.reshapes[i].is_identity() {
                    "identity (skipped)"
                } else {
                    self.opts.backend.routine()
                };
                writeln!(f, "    reshape {i}: {label}")?;
            }
        }
        Ok(())
    }
}

/// Why a plan could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A transform extent is zero.
    DegenerateTransform([usize; 3]),
    /// `nranks == 0`.
    NoRanks,
    /// `batch == 0`.
    EmptyBatch,
    /// `shrink_to` outside `1..=nranks`.
    BadShrink {
        /// The requested target.
        requested: usize,
        /// The world size.
        nranks: usize,
    },
    /// Slab decomposition past the paper's `N₂`-process limit.
    SlabLimit {
        /// Active ranks requested.
        active: usize,
        /// Maximum supported by the domain.
        limit: usize,
    },
    /// The r2c pipeline supports `batch == 1` only.
    R2cBatched {
        /// The rejected batch size.
        batch: usize,
    },
    /// The r2c pipeline does not shrink the grid (`shrink_to` must be unset).
    R2cShrink {
        /// The rejected shrink target.
        shrink_to: usize,
    },
    /// A custom I/O distribution has the wrong rank count.
    IoRankMismatch {
        /// Ranks in the supplied distribution.
        got: usize,
        /// World size expected.
        expected: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::DegenerateTransform(n) => write!(f, "degenerate transform {n:?}"),
            PlanError::NoRanks => write!(f, "need at least one rank"),
            PlanError::EmptyBatch => write!(f, "batch must be >= 1"),
            PlanError::BadShrink { requested, nranks } => {
                write!(f, "shrink_to {requested} out of 1..={nranks}")
            }
            PlanError::SlabLimit { active, limit } => write!(
                f,
                "slab decomposition supports at most {limit} ranks, got {active}"
            ),
            PlanError::R2cBatched { batch } => {
                write!(
                    f,
                    "the r2c pipeline supports batch == 1 only, got batch {batch}"
                )
            }
            PlanError::R2cShrink { shrink_to } => write!(
                f,
                "the r2c pipeline does not shrink the grid, got shrink_to {shrink_to}"
            ),
            PlanError::IoRankMismatch { got, expected } => {
                write!(
                    f,
                    "custom I/O distribution has {got} ranks, expected {expected}"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl FftPlan {
    /// Builds a plan for an `n[0] × n[1] × n[2]` complex-to-complex
    /// transform over `nranks` ranks. Panics on invalid options; see
    /// [`FftPlan::try_build`] for the fallible variant.
    pub fn build(n: [usize; 3], nranks: usize, opts: FftOptions) -> FftPlan {
        FftPlan::try_build(n, nranks, opts).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible plan construction.
    pub fn try_build(n: [usize; 3], nranks: usize, opts: FftOptions) -> Result<FftPlan, PlanError> {
        FftPlan::try_build_impl(n, nranks, opts, None, None)
    }

    /// Builds a plan whose input and output layouts are **arbitrary
    /// user-supplied distributions** (one box per rank, validated to
    /// partition the domain) — heFFTe/fftMPI/SWFFT-style general I/O grids.
    /// `opts.io` is ignored.
    pub fn build_with_io(
        n: [usize; 3],
        nranks: usize,
        opts: FftOptions,
        input: Distribution,
        output: Distribution,
    ) -> FftPlan {
        FftPlan::try_build_impl(n, nranks, opts, Some(input), Some(output))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_build_impl(
        n: [usize; 3],
        nranks: usize,
        opts: FftOptions,
        io_in: Option<Distribution>,
        io_out: Option<Distribution>,
    ) -> Result<FftPlan, PlanError> {
        if n.contains(&0) {
            return Err(PlanError::DegenerateTransform(n));
        }
        if nranks == 0 {
            return Err(PlanError::NoRanks);
        }
        if opts.batch == 0 {
            return Err(PlanError::EmptyBatch);
        }
        let active = match opts.shrink_to {
            Some(l) => {
                if l == 0 || l > nranks {
                    return Err(PlanError::BadShrink {
                        requested: l,
                        nranks,
                    });
                }
                l
            }
            None => nranks,
        };
        if opts.decomp == Decomp::Slabs && active > 1 {
            let limit = n[0].min(n[1]);
            if active > limit {
                return Err(PlanError::SlabLimit { active, limit });
            }
        }
        for d in io_in.iter().chain(io_out.iter()) {
            if d.boxes.len() != nranks {
                return Err(PlanError::IoRankMismatch {
                    got: d.boxes.len(),
                    expected: nranks,
                });
            }
        }

        let stages = compute_stages(opts.decomp, active, n);

        // Distribution sequence.
        let mut dists: Vec<Distribution> = Vec::new();
        let mut stage_axes: Vec<Vec<usize>> = Vec::new();
        let custom_io = io_in.is_some() || io_out.is_some();
        let io_brick =
            !custom_io && (matches!(opts.io, IoLayout::Brick) || opts.decomp == Decomp::Bricks);
        if let Some(input) = io_in {
            dists.push(input);
            stage_axes.push(Vec::new());
        } else if io_brick {
            let brick = min_surface_grid(nranks, n);
            dists.push(Distribution::new(n, brick, nranks));
            stage_axes.push(Vec::new());
        }
        for st in &stages {
            let d = Distribution::new(n, st.grid, nranks);
            // Merge with the previous distribution when identical (happens
            // when the input grid coincides with a compute grid).
            if let Some(prev) = dists.last() {
                if prev.boxes == d.boxes {
                    #[expect(clippy::expect_used, reason = "a stage was pushed before any merge")]
                    let last = stage_axes.last_mut().expect("non-empty");
                    last.extend(st.axes.clone());
                    continue;
                }
            }
            dists.push(d);
            stage_axes.push(st.axes.clone());
        }
        if let Some(output) = io_out {
            if dists.last().map(|d| &d.boxes) != Some(&output.boxes) {
                dists.push(output);
                stage_axes.push(Vec::new());
            }
        } else if io_brick {
            let brick = min_surface_grid(nranks, n);
            if dists.last().map(|d| d.grid) != Some(brick) {
                dists.push(Distribution::new(n, brick, nranks));
                stage_axes.push(Vec::new());
            }
        }

        // Reshapes between consecutive distributions. Each window is planned
        // once: the reverse spec is derived from the forward one (the flow
        // graph is symmetric), and a window whose distribution pair already
        // occurred reuses the earlier plan instead of re-running the O(Π·peers)
        // intersection sweep.
        let mut reshapes: Vec<ReshapeSpec> = Vec::with_capacity(dists.len().saturating_sub(1));
        let mut reshapes_rev: Vec<ReshapeSpec> = Vec::with_capacity(dists.len().saturating_sub(1));
        for (i, w) in dists.windows(2).enumerate() {
            let prior = dists
                .windows(2)
                .take(i)
                .position(|p| p[0] == w[0] && p[1] == w[1]);
            let fwd = match prior {
                Some(j) => reshapes[j].clone(),
                None => ReshapeSpec::build(&w[0], &w[1]),
            };
            reshapes_rev.push(fwd.reversed());
            reshapes.push(fwd);
        }

        // Forward step list: arrive in dist i ⇒ transform its axes.
        let mut steps = Vec::new();
        for (i, axes) in stage_axes.iter().enumerate() {
            if i > 0 {
                steps.push(Step::Reshape(i - 1));
            }
            for &axis in axes {
                steps.push(Step::LocalFft { dist: i, axis });
            }
        }

        Ok(FftPlan {
            n,
            nranks,
            active,
            opts,
            dists,
            reshapes,
            reshapes_rev,
            steps,
        })
    }

    /// Total elements of one transform.
    pub fn total_elems(&self) -> usize {
        self.n.iter().product()
    }

    /// Number of communication phases per (non-batched) transform — 2 for
    /// pencils with matching I/O, 4 with brick I/O, 1 for slabs, etc.
    pub fn exchange_count(&self) -> usize {
        self.reshapes.iter().filter(|r| !r.is_identity()).count()
    }

    /// The step sequence for a given direction: forward as stored, inverse
    /// mirrored (reshapes reversed, stages in opposite order).
    pub fn steps_for(&self, dir: fftkern::Direction) -> Vec<Step> {
        match dir {
            fftkern::Direction::Forward => self.steps.clone(),
            fftkern::Direction::Inverse => self.steps.iter().rev().cloned().collect(),
        }
    }

    /// Effective pipeline chunk count (≤ batch).
    pub fn chunks(&self) -> usize {
        self.opts.pipeline_chunks.clamp(1, self.opts.batch)
    }

    /// Batch items in pipeline chunk `c` (balanced split).
    pub fn chunk_items(&self, c: usize) -> usize {
        let (lo, hi) = crate::boxes::Box3::chunk(self.opts.batch, self.chunks(), c);
        hi - lo
    }

    /// Layout the local FFT kernels see along `axis`.
    pub fn fft_layout(&self, axis: usize) -> LayoutKind {
        if self.opts.contiguous_fft || axis == 2 {
            LayoutKind::Contiguous
        } else {
            LayoutKind::Strided
        }
    }

    /// Modeled duration (ns) of the local FFT pass along `axis` for `rank`
    /// in distribution `dist`, covering `items` batch items. `first_call`
    /// charges the strided plan-setup spike (Fig. 10).
    pub fn local_fft_ns(
        &self,
        km: &KernelTimeModel,
        dist: usize,
        axis: usize,
        rank: usize,
        items: usize,
        first_call: bool,
    ) -> u64 {
        let b = self.dists[dist].rank_box(rank);
        if b.is_empty() {
            return 0;
        }
        debug_assert_eq!(
            b.len(axis),
            self.n[axis],
            "axis {axis} not local in distribution {dist}"
        );
        let rows = (b.volume() / b.len(axis)) * items;
        let layout = self.fft_layout(axis);
        km.batched_fft_1d_ns(
            b.len(axis),
            rows,
            layout,
            first_call && layout == LayoutKind::Strided,
        )
    }

    /// Modeled duration (ns) of a *partial* local FFT pass along `axis`:
    /// `lines` axis lines (per batch item) instead of the rank's full box.
    /// Used by the transform-ahead schedule, which runs the next-axis
    /// butterflies per reshape chunk as its lines complete (DESIGN.md §14).
    /// Returns 0 when `lines == 0` so empty chunks price (and emit) nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn local_fft_lines_ns(
        &self,
        km: &KernelTimeModel,
        dist: usize,
        axis: usize,
        rank: usize,
        items: usize,
        lines: usize,
        first_call: bool,
    ) -> u64 {
        if lines == 0 {
            return 0;
        }
        let b = self.dists[dist].rank_box(rank);
        if b.is_empty() {
            return 0;
        }
        debug_assert_eq!(
            b.len(axis),
            self.n[axis],
            "axis {axis} not local in distribution {dist}"
        );
        let layout = self.fft_layout(axis);
        km.batched_fft_1d_ns(
            b.len(axis),
            lines * items,
            layout,
            first_call && layout == LayoutKind::Strided,
        )
    }

    /// Per-rank local kernel bytes of reshape `ri` in direction-resolved
    /// spec `spec`: `(pack_bytes, unpack_bytes, self_bytes)` per batch item.
    ///
    /// * `AllToAllW` packs nothing (datatypes handled inside MPI).
    /// * Padded `AllToAll` packs the full padded send matrix row and unpacks
    ///   from padded receive blocks.
    /// * P2P moves the self block by device copy outside MPI.
    pub fn reshape_local_bytes(&self, spec: &ReshapeSpec, rank: usize) -> (usize, usize, usize) {
        match self.opts.backend {
            CommBackend::AllToAllW => (0, 0, 0),
            CommBackend::AllToAll => {
                let Some(gi) = spec.group_of[rank] else {
                    return (0, 0, 0);
                };
                let group = &spec.groups[gi];
                let pad = spec.padded_block_bytes(group);
                let total = pad * group.len();
                // Unpadding on receive only touches the real bytes plus one
                // pass over the padding.
                let real_recv: usize = spec.recvs[rank]
                    .iter()
                    .map(|(_, b)| b.volume() * crate::reshape::ELEM_BYTES)
                    .sum();
                (total, real_recv.max(total / 2), 0)
            }
            CommBackend::AllToAllV => {
                let send: usize = spec.sends[rank]
                    .iter()
                    .map(|(_, b)| b.volume() * crate::reshape::ELEM_BYTES)
                    .sum();
                let recv: usize = spec.recvs[rank]
                    .iter()
                    .map(|(_, b)| b.volume() * crate::reshape::ELEM_BYTES)
                    .sum();
                (send, recv, 0)
            }
            CommBackend::P2p | CommBackend::P2pBlocking => {
                let send = spec.offrank_send_bytes(rank);
                let recv = spec.offrank_recv_bytes(rank);
                let self_bytes = spec.bytes(rank, rank);
                (send, recv, self_bytes)
            }
        }
    }

    /// Unpack kernel duration (ns) for `bytes`, honouring the transposed
    /// unpack factor in contiguous-FFT mode.
    pub fn unpack_ns(&self, km: &KernelTimeModel, bytes: usize) -> u64 {
        let base = km.unpack_ns(bytes);
        if self.opts.contiguous_fft {
            base * TRANSPOSED_UNPACK_NUM / TRANSPOSED_UNPACK_DEN
        } else {
            base
        }
    }

    /// Pack kernel duration (ns).
    pub fn pack_ns(&self, km: &KernelTimeModel, bytes: usize) -> u64 {
        km.pack_ns(bytes)
    }

    /// On-rank self-copy duration (ns) of the P2P backends.
    pub fn selfcopy_ns(&self, spec_machine: &MachineSpec, bytes: usize) -> u64 {
        if bytes == 0 {
            return 0;
        }
        (bytes as f64 / (spec_machine.gpu.mem_bw_gbs / 2.0)).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fftkern::Direction;

    fn opts() -> FftOptions {
        FftOptions::default()
    }

    #[test]
    fn pencil_brick_plan_has_four_exchanges() {
        let p = FftPlan::build([64, 64, 64], 24, opts());
        assert_eq!(p.exchange_count(), 4);
        assert_eq!(p.dists.len(), 5);
        // 4 reshapes + 3 FFT stages = 7 steps.
        assert_eq!(p.steps.len(), 7);
    }

    #[test]
    fn pencil_matching_io_has_two_exchanges() {
        let p = FftPlan::build(
            [64, 64, 64],
            24,
            FftOptions {
                io: IoLayout::Matching,
                ..opts()
            },
        );
        assert_eq!(p.exchange_count(), 2);
        assert_eq!(p.dists.len(), 3);
    }

    #[test]
    fn slab_matching_io_has_one_exchange() {
        let p = FftPlan::build(
            [64, 64, 64],
            8,
            FftOptions {
                decomp: Decomp::Slabs,
                io: IoLayout::Matching,
                ..opts()
            },
        );
        assert_eq!(p.exchange_count(), 1);
    }

    #[test]
    fn bricks_decomp_forces_brick_io() {
        let p = FftPlan::build(
            [64, 64, 64],
            24,
            FftOptions {
                decomp: Decomp::Bricks,
                io: IoLayout::Matching, // overridden by Bricks
                ..opts()
            },
        );
        assert_eq!(p.exchange_count(), 4);
    }

    #[test]
    fn every_axis_transformed_exactly_once() {
        for decomp in [Decomp::Slabs, Decomp::Pencils, Decomp::Bricks] {
            let nranks = if decomp == Decomp::Slabs { 8 } else { 24 };
            let p = FftPlan::build([32, 32, 32], nranks, FftOptions { decomp, ..opts() });
            let mut axes: Vec<usize> = p
                .steps
                .iter()
                .filter_map(|s| match s {
                    Step::LocalFft { axis, .. } => Some(*axis),
                    _ => None,
                })
                .collect();
            axes.sort_unstable();
            assert_eq!(axes, vec![0, 1, 2], "{decomp:?}");
        }
    }

    #[test]
    fn fft_steps_only_on_local_axes() {
        let p = FftPlan::build([32, 32, 32], 12, opts());
        for s in &p.steps {
            if let Step::LocalFft { dist, axis } = s {
                assert_eq!(
                    p.dists[*dist].grid[*axis], 1,
                    "axis {axis} split in dist {dist}"
                );
            }
        }
    }

    #[test]
    fn inverse_steps_are_mirrored() {
        let p = FftPlan::build([32, 32, 32], 12, opts());
        let fwd = p.steps_for(Direction::Forward);
        let inv = p.steps_for(Direction::Inverse);
        assert_eq!(fwd.len(), inv.len());
        assert_eq!(fwd.first(), inv.last());
    }

    #[test]
    fn shrinking_reduces_active_ranks() {
        let p = FftPlan::build(
            [32, 32, 32],
            24,
            FftOptions {
                shrink_to: Some(6),
                ..opts()
            },
        );
        assert_eq!(p.active, 6);
        // The compute distributions hold data only on 6 ranks.
        for (i, d) in p.dists.iter().enumerate() {
            if i != 0 && i != p.dists.len() - 1 {
                assert_eq!(d.active_ranks(), 6, "dist {i}");
            } else {
                assert_eq!(d.active_ranks(), 24, "io dist {i}");
            }
        }
    }

    #[test]
    fn chunking_covers_batch() {
        let p = FftPlan::build(
            [16, 16, 16],
            4,
            FftOptions {
                batch: 10,
                pipeline_chunks: 4,
                ..opts()
            },
        );
        assert_eq!(p.chunks(), 4);
        let total: usize = (0..4).map(|c| p.chunk_items(c)).sum();
        assert_eq!(total, 10);
        // batch=1 degenerates to one chunk regardless of the setting.
        let single = FftPlan::build([16, 16, 16], 4, FftOptions { batch: 1, ..opts() });
        assert_eq!(single.chunks(), 1);
    }

    #[test]
    fn layout_per_axis_and_mode() {
        let strided = FftPlan::build([16, 16, 16], 4, opts());
        assert_eq!(strided.fft_layout(2), LayoutKind::Contiguous);
        assert_eq!(strided.fft_layout(0), LayoutKind::Strided);
        let contig = FftPlan::build(
            [16, 16, 16],
            4,
            FftOptions {
                contiguous_fft: true,
                ..opts()
            },
        );
        assert_eq!(contig.fft_layout(0), LayoutKind::Contiguous);
    }

    #[test]
    fn alltoallw_needs_no_pack() {
        let p = FftPlan::build(
            [16, 16, 16],
            4,
            FftOptions {
                backend: CommBackend::AllToAllW,
                ..opts()
            },
        );
        let (pack, unpack, selfb) = p.reshape_local_bytes(&p.reshapes[0], 0);
        assert_eq!((pack, unpack, selfb), (0, 0, 0));
        assert!(!CommBackend::AllToAllW.needs_pack());
    }

    #[test]
    fn padded_alltoall_packs_more_than_alltoallv() {
        // 12 ranks: brick grid (2,2,3) differs from pencil grid (1,3,4), so
        // the brick->pencil blocks are uneven and padding inflates them.
        let mk = |backend| FftPlan::build([24, 24, 24], 12, FftOptions { backend, ..opts() });
        let pv = mk(CommBackend::AllToAllV);
        let pa = mk(CommBackend::AllToAll);
        // Brick->pencil reshape (index 0) has uneven blocks.
        let (pack_v, _, _) = pv.reshape_local_bytes(&pv.reshapes[0], 0);
        let (pack_a, _, _) = pa.reshape_local_bytes(&pa.reshapes[0], 0);
        assert!(
            pack_a > pack_v,
            "padded pack {pack_a} should exceed exact pack {pack_v}"
        );
    }

    #[test]
    fn display_summarizes_the_stage_table() {
        let p = FftPlan::build([64, 64, 64], 24, opts());
        let s = p.to_string();
        assert!(s.contains("64x64x64 c2c on 24 ranks"));
        assert!(s.contains("pencils / MPI_Alltoallv"));
        assert!(s.contains("(1, 4, 6)"));
        assert!(s.contains("FFT axis 0"));
        assert!(s.contains("reshape 3"));
        // One stage line per distribution.
        assert_eq!(s.matches("stage ").count(), p.dists.len());
    }

    #[test]
    fn routine_names_match_paper_labels() {
        assert_eq!(CommBackend::AllToAll.routine(), "MPI_Alltoall");
        assert_eq!(CommBackend::AllToAllV.routine(), "MPI_Alltoallv");
        assert_eq!(CommBackend::AllToAllW.routine(), "MPI_Alltoallw");
        assert!(CommBackend::P2p.routine().contains("Isend"));
        assert!(CommBackend::P2pBlocking.routine().contains("MPI_Send"));
    }
}
