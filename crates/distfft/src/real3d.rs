//! Distributed 3-D real-to-complex / complex-to-real transforms.
//!
//! LAMMPS KSPACE "uses 3-D real and complex transforms" (§IV-D), and heFFTe
//! ships an `fft3d_r2c` API; this module is its equivalent. The transform
//! runs at true r2c cost — half the complex work and half the wire bytes of
//! embedding the reals into complex — via the packed-pair trick:
//!
//! 1. locally fold axis-2 pairs of the real brick into packed complex
//!    values (domain `[n0, n1, n2/2]`);
//! 2. reshape to axis-2 pencils and run a length-`n2/2` complex FFT along
//!    axis 2 (plan A);
//! 3. untangle each axis-2 line into the `h = n2/2 + 1` non-redundant bins
//!    (domain `[n0, n1, h]`);
//! 4. transform axes 1 and 0 with ordinary complex reshful stages, ending in
//!    a brick layout of the half-spectrum (plan C).
//!
//! The inverse retraces the steps. Both plans are ordinary [`FftPlan`]s, so
//! the functional and analytic executors (and their exact-consistency
//! guarantee) apply unchanged.

use fftkern::real::{retangle_half_with, untangle_half_with};
use fftkern::twiddle::forward_table;
use fftkern::{Direction, C64};
use mpisim::comm::{Comm, Rank};
use simgrid::SimTime;

use crate::boxes::Box3;
use crate::exec::{bind, execute, BoundPlan, ExecCtx};
use crate::plan::{FftOptions, FftPlan, PlanError, Step};
use crate::procgrid::{closest_factor_pair, min_surface_grid, Distribution};
use crate::reshape::ReshapeSpec;

/// A distributed r2c/c2r plan over an `n0 × n1 × n2` real domain
/// (`n2` even).
#[derive(Debug, Clone)]
pub struct Real3dPlan {
    /// Real-domain extents.
    pub n: [usize; 3],
    /// Non-redundant axis-2 bins: `n2/2 + 1`.
    pub h: usize,
    /// Stage A: packed domain `[n0, n1, n2/2]` — input reshape + axis-2 FFT.
    pub plan_a: FftPlan,
    /// Stage C: half-spectrum domain `[n0, n1, h]` — axes 1 and 0 + output
    /// reshape.
    pub plan_c: FftPlan,
}

impl Real3dPlan {
    /// Builds the plan. The backend/GPU options of `opts` apply to every
    /// reshape, and `opts.decomp` picks the intermediate layout family
    /// (slabs when requested and within the `min(n0, n1)` rank limit,
    /// pencils otherwise — the same Fig. 1 trade-off as the complex plan);
    /// `opts.io` is fixed by the r2c pipeline (brick I/O), and `opts.batch`
    /// must be 1 — batched r2c is unimplemented and rejected with
    /// [`PlanError::R2cBatched`]. Likewise `opts.shrink_to` must be unset:
    /// the pipeline always computes on every rank, so a grid-shrinking
    /// request is rejected with [`PlanError::R2cShrink`].
    pub fn try_build(
        n: [usize; 3],
        nranks: usize,
        opts: FftOptions,
    ) -> Result<Real3dPlan, PlanError> {
        if n.contains(&0) || !n[2].is_multiple_of(2) || n[2] < 2 {
            return Err(PlanError::DegenerateTransform(n));
        }
        if nranks == 0 {
            return Err(PlanError::NoRanks);
        }
        // Batched r2c is not implemented: the packed/half-spectrum domains
        // below are sized for one transform, so a `batch > 1` request must
        // fail loudly instead of silently transforming only the first item.
        if opts.batch > 1 {
            return Err(PlanError::R2cBatched { batch: opts.batch });
        }
        // Nor is grid shrinking: the hand-rolled distributions below span
        // all ranks, so a shrink request must fail instead of being ignored.
        if let Some(shrink_to) = opts.shrink_to {
            return Err(PlanError::R2cShrink { shrink_to });
        }
        let m = n[2] / 2;
        let h = m + 1;
        let mp = [n[0], n[1], m];
        let mh = [n[0], n[1], h];

        let base = FftOptions { batch: 1, ..opts };

        if base.decomp == crate::Decomp::Slabs && nranks > 1 {
            let limit = mp[0].min(mp[1]);
            if nranks > limit {
                return Err(PlanError::SlabLimit {
                    active: nranks,
                    limit,
                });
            }
            // Slab pipeline (one fewer reshape than pencils): axis-1 slabs
            // keep axes 0 and 2 local, so the half-domain axis-0 transform
            // runs in the same layout the axis-2 stage left behind.
            let d_in = Distribution::new(mp, min_surface_grid(nranks, mp), nranks);
            let d_z = Distribution::new(mp, [1, nranks, 1], nranks);
            let plan_a = hand_rolled(
                mp,
                nranks,
                base.clone(),
                vec![d_in, d_z],
                vec![vec![], vec![2]],
            );
            let c0 = Distribution::new(mh, [1, nranks, 1], nranks);
            let c1 = Distribution::new(mh, [nranks, 1, 1], nranks);
            let c2 = Distribution::new(mh, min_surface_grid(nranks, mh), nranks);
            let plan_c = hand_rolled(
                mh,
                nranks,
                base,
                vec![c0, c1, c2],
                vec![vec![0], vec![1], vec![]],
            );
            return Ok(Real3dPlan {
                n,
                h,
                plan_a,
                plan_c,
            });
        }

        let (p, q) = closest_factor_pair(nranks);

        // Plan A: packed brick -> (P, Q, 1) pencils, FFT along axis 2.
        let d_in = Distribution::new(mp, min_surface_grid(nranks, mp), nranks);
        let d_z = Distribution::new(mp, [p, q, 1], nranks);
        let plan_a = hand_rolled(
            mp,
            nranks,
            base.clone(),
            vec![d_in, d_z],
            vec![vec![], vec![2]],
        );

        // Plan C: (P, Q, 1) over the half domain -> axis 1 -> axis 0 ->
        // output brick.
        let c0 = Distribution::new(mh, [p, q, 1], nranks);
        let c1 = Distribution::new(mh, [p, 1, q], nranks);
        let c2 = Distribution::new(mh, [1, p, q], nranks);
        let c3 = Distribution::new(mh, min_surface_grid(nranks, mh), nranks);
        let plan_c = hand_rolled(
            mh,
            nranks,
            base,
            vec![c0, c1, c2, c3],
            vec![vec![], vec![1], vec![0], vec![]],
        );

        Ok(Real3dPlan {
            n,
            h,
            plan_a,
            plan_c,
        })
    }

    /// Panicking wrapper around [`Real3dPlan::try_build`].
    pub fn build(n: [usize; 3], nranks: usize, opts: FftOptions) -> Real3dPlan {
        Real3dPlan::try_build(n, nranks, opts).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The rank's REAL-domain input box (the packed input box scaled ×2
    /// along axis 2 — always even-aligned by construction).
    pub fn real_input_box(&self, rank: usize) -> Box3 {
        let b = self.plan_a.dists[0].rank_box(rank);
        if b.is_empty() {
            return Box3::EMPTY;
        }
        Box3::new(
            [b.lo[0], b.lo[1], b.lo[2] * 2],
            [b.hi[0], b.hi[1], b.hi[2] * 2],
        )
    }

    /// The rank's half-spectrum output box (brick layout over
    /// `[n0, n1, h]`).
    pub fn spectrum_box(&self, rank: usize) -> Box3 {
        *self.plan_c.dists[self.plan_c.dists.len() - 1].rank_box(rank)
    }

    /// Round-trip normalization: `c2r(r2c(x)) == factor · x`.
    pub fn normalization(&self) -> f64 {
        (self.n[0] * self.n[1] * self.n[2]) as f64
    }

    /// Binds both inner plans (collective over `comm`).
    pub fn bind(&self, rank: &mut Rank, comm: &Comm) -> (BoundPlan, BoundPlan) {
        (
            bind(&self.plan_a, rank, comm),
            bind(&self.plan_c, rank, comm),
        )
    }

    /// Forward r2c: consumes this rank's reals (row-major over
    /// [`real_input_box`]) and returns its half-spectrum block (row-major
    /// over [`spectrum_box`]).
    ///
    /// [`real_input_box`]: Real3dPlan::real_input_box
    /// [`spectrum_box`]: Real3dPlan::spectrum_box
    #[allow(clippy::too_many_arguments)]
    pub fn execute_forward(
        &self,
        bound: &(BoundPlan, BoundPlan),
        ctx: &mut ExecCtx,
        rank: &mut Rank,
        comm: &Comm,
        reals: &[f64],
    ) -> Vec<C64> {
        let me = rank.rank();
        let km = rank.world().spec().kernel_model();
        let in_box = self.real_input_box(me);
        assert_eq!(reals.len(), in_box.volume(), "input does not match layout");

        // 1. Local fold into packed complex (pairs along axis 2), staged in
        // a pooled buffer.
        let mut packed = ctx.take_buffer();
        packed.extend(reals.chunks_exact(2).map(|p| C64::new(p[0], p[1])));
        rank.compute_ns(km.pointwise_ns(packed.len(), 2.0));

        // 2. Reshape + axis-2 FFT on the packed domain.
        let mut data = vec![packed];
        execute(
            &self.plan_a,
            &bound.0,
            ctx,
            rank,
            comm,
            &mut data,
            Direction::Forward,
        );

        // 3. Untangle every axis-2 line: m bins -> h bins.
        let zbox = self.plan_a.dists[1].rank_box(me);
        let m = self.n[2] / 2;
        let untangled = if zbox.is_empty() {
            Vec::new()
        } else {
            let rows = zbox.volume() / m;
            let mut out = ctx.take_buffer();
            out.reserve(rows * self.h);
            let roots = forward_table(self.n[2]);
            for row in data[0].chunks_exact(m) {
                untangle_half_with(row, &roots, &mut out);
            }
            rank.compute_ns(km.pointwise_ns(rows * self.h, 12.0));
            out
        };
        if let Some(buf) = data.pop() {
            ctx.recycle(buf);
        }

        // 4. Axes 1 and 0 + output reshape on the half domain.
        let mut data_c = vec![untangled];
        execute(
            &self.plan_c,
            &bound.1,
            ctx,
            rank,
            comm,
            &mut data_c,
            Direction::Forward,
        );
        data_c.remove(0)
    }

    /// Inverse c2r: consumes this rank's half-spectrum block and returns its
    /// reals (unnormalized: scaled by [`normalization`]).
    ///
    /// [`normalization`]: Real3dPlan::normalization
    #[allow(clippy::too_many_arguments)]
    pub fn execute_inverse(
        &self,
        bound: &(BoundPlan, BoundPlan),
        ctx: &mut ExecCtx,
        rank: &mut Rank,
        comm: &Comm,
        spectrum: Vec<C64>,
    ) -> Vec<f64> {
        let me = rank.rank();
        let km = rank.world().spec().kernel_model();

        // Reverse of stage C: back to the (P,Q,1) half-domain pencils.
        let mut data_c = vec![spectrum];
        execute(
            &self.plan_c,
            &bound.1,
            ctx,
            rank,
            comm,
            &mut data_c,
            Direction::Inverse,
        );

        // Re-tangle every axis-2 line: h bins -> m packed bins.
        let zbox = self.plan_a.dists[1].rank_box(me);
        let m = self.n[2] / 2;
        let packed = if zbox.is_empty() {
            Vec::new()
        } else {
            let rows = data_c[0].len() / self.h;
            let mut out = ctx.take_buffer();
            out.reserve(rows * m);
            let roots = forward_table(self.n[2]);
            for row in data_c[0].chunks_exact(self.h) {
                retangle_half_with(row, &roots, &mut out);
            }
            rank.compute_ns(km.pointwise_ns(rows * m, 12.0));
            out
        };
        if let Some(buf) = data_c.pop() {
            ctx.recycle(buf);
        }

        // Reverse of stage A: inverse axis-2 FFT + reshape to packed bricks.
        let mut data = vec![packed];
        execute(
            &self.plan_a,
            &bound.0,
            ctx,
            rank,
            comm,
            &mut data,
            Direction::Inverse,
        );

        // Unfold to reals (×2: the half-size transform carries half the
        // normalization, exactly as in the 1-D packed trick).
        let out: Vec<f64> = data[0]
            .iter()
            .flat_map(|z| [z.re * 2.0, z.im * 2.0])
            .collect();
        rank.compute_ns(km.pointwise_ns(out.len() / 2, 2.0));
        if let Some(buf) = data.pop() {
            ctx.recycle(buf);
        }
        out
    }

    /// Busiest-rank packed volume (the fold/unfold pointwise extent).
    fn max_packed(&self) -> usize {
        (0..self.plan_a.nranks)
            .map(|r| self.plan_a.dists[0].rank_box(r).volume())
            .max()
            .unwrap_or(0)
    }

    /// Busiest-rank axis-2 line count in the z-pencil layout (the
    /// untangle/retangle pointwise extent is `rows × h` / `rows × m`).
    fn max_rows(&self) -> usize {
        let m = self.n[2] / 2;
        (0..self.plan_a.nranks)
            .map(|r| self.plan_a.dists[1].rank_box(r).volume() / m.max(1))
            .max()
            .unwrap_or(0)
    }

    /// Pointwise (fold + untangle) cost of a forward transform at the
    /// busiest rank — the r2c-specific kernels outside the two inner plans.
    pub fn pointwise_forward_ns(&self, km: &fftkern::kernel_model::KernelTimeModel) -> u64 {
        km.pointwise_ns(self.max_packed(), 2.0) + km.pointwise_ns(self.max_rows() * self.h, 12.0)
    }

    /// Pointwise (retangle + unfold) cost of an inverse transform at the
    /// busiest rank.
    pub fn pointwise_inverse_ns(&self, km: &fftkern::kernel_model::KernelTimeModel) -> u64 {
        let m = self.n[2] / 2;
        km.pointwise_ns(self.max_rows() * m, 12.0) + km.pointwise_ns(self.max_packed(), 2.0)
    }

    /// Simulated-time cost of one forward transform at any scale via the
    /// analytic executor: the two inner plans dry-run back to back, plus
    /// the fold/untangle pointwise kernels (charged at the busiest rank —
    /// a slight over-estimate relative to the functional executor, which
    /// overlaps them per rank).
    pub fn dryrun_forward(
        &self,
        machine: &simgrid::MachineSpec,
        opts: crate::dryrun::DryRunOpts,
    ) -> SimTime {
        let km = machine.kernel_model();
        let mut a = crate::dryrun::DryRunner::new(&self.plan_a, machine, opts.clone());
        let ra = a.run(Direction::Forward);
        let mut c = crate::dryrun::DryRunner::new(&self.plan_c, machine, opts);
        let rc = c.run(Direction::Forward);
        ra.makespan() + rc.makespan() + SimTime::from_ns(self.pointwise_forward_ns(&km))
    }

    /// Simulated-time cost of one inverse (c2r) transform: the inner plans
    /// retraced in reverse, plus the retangle/unfold pointwise kernels.
    pub fn dryrun_inverse(
        &self,
        machine: &simgrid::MachineSpec,
        opts: crate::dryrun::DryRunOpts,
    ) -> SimTime {
        let km = machine.kernel_model();
        let mut c = crate::dryrun::DryRunner::new(&self.plan_c, machine, opts.clone());
        let rc = c.run(Direction::Inverse);
        let mut a = crate::dryrun::DryRunner::new(&self.plan_a, machine, opts);
        let ra = a.run(Direction::Inverse);
        rc.makespan() + ra.makespan() + SimTime::from_ns(self.pointwise_inverse_ns(&km))
    }
}

/// Builds an [`FftPlan`] directly from an explicit distribution sequence and
/// per-distribution transform axes (the r2c pipeline's stage order differs
/// from the standard c2c plan, so it cannot come from `compute_stages`).
fn hand_rolled(
    n: [usize; 3],
    nranks: usize,
    opts: FftOptions,
    dists: Vec<Distribution>,
    stage_axes: Vec<Vec<usize>>,
) -> FftPlan {
    assert_eq!(dists.len(), stage_axes.len());
    let mut reshapes = Vec::new();
    let mut reshapes_rev = Vec::new();
    for w in dists.windows(2) {
        let fwd = ReshapeSpec::build(&w[0], &w[1]);
        reshapes_rev.push(fwd.reversed());
        reshapes.push(fwd);
    }
    let mut steps = Vec::new();
    for (i, axes) in stage_axes.iter().enumerate() {
        if i > 0 {
            steps.push(Step::Reshape(i - 1));
        }
        for &axis in axes {
            steps.push(Step::LocalFft { dist: i, axis });
        }
    }
    FftPlan {
        n,
        nranks,
        active: nranks,
        opts,
        dists,
        reshapes,
        reshapes_rev,
        steps,
    }
}
