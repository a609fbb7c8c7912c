//! High-level heFFTe-style API.
//!
//! heFFTe's user-facing object is `heffte::fft3d<backend>`: constructed from
//! input/output boxes and a communicator, with `forward`/`backward` methods
//! and a scaling option. [`Fft3d`] is the equivalent here, wrapping plan
//! construction, sub-communicator binding and executor state behind two
//! calls:
//!
//! ```ignore
//! let mut fft = Fft3d::new(&plan_options, rank, &comm);
//! fft.forward(&mut field, Scale::None);
//! fft.backward(&mut field, Scale::Full);   // full round trip == identity
//! ```

use fftkern::{Direction, C64};
use mpisim::comm::{Comm, Rank};
use simgrid::SimTime;

use crate::exec::{bind, execute, BoundPlan, ExecCtx, ExecResult};
use crate::plan::{FftOptions, FftPlan};
use crate::trace::{KernelKind, Trace, TraceEvent};

/// Spectrum scaling convention, matching heFFTe's `scale::` options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// No scaling (cuFFT/FFTW convention; round trip multiplies by N).
    None,
    /// Multiply by `1/N` (a `Full`-scaled inverse makes the round trip the
    /// identity).
    Full,
    /// Multiply by `1/√N` on both directions (unitary transform).
    Symmetric,
}

impl Scale {
    fn factor(self, n: usize) -> f64 {
        match self {
            Scale::None => 1.0,
            Scale::Full => 1.0 / n as f64,
            Scale::Symmetric => 1.0 / (n as f64).sqrt(),
        }
    }
}

/// A bound, ready-to-execute distributed 3-D FFT for one rank.
///
/// Construction is collective: every rank of `comm` must call [`Fft3d::new`]
/// with the same plan at the same point in its program.
pub struct Fft3d {
    plan: FftPlan,
    bound: BoundPlan,
    ctx: ExecCtx,
    me: usize,
    /// Simulated time at which the most recent transform, its scaling
    /// included, finished on this rank.
    pub last_time: SimTime,
    /// Event trace of the most recent transform on this rank; a scaled
    /// transform ends with one `Pointwise` kernel.
    pub last_trace: Trace,
}

impl Fft3d {
    /// Builds the plan and splits its sub-communicators (collective).
    pub fn new(n: [usize; 3], opts: FftOptions, rank: &mut Rank, comm: &Comm) -> Fft3d {
        let plan = FftPlan::build(n, comm.size(), opts);
        Fft3d::from_plan(plan, rank, comm)
    }

    /// Wraps an existing plan (collective).
    pub fn from_plan(plan: FftPlan, rank: &mut Rank, comm: &Comm) -> Fft3d {
        let bound = bind(&plan, rank, comm);
        Fft3d {
            plan,
            bound,
            ctx: ExecCtx::new(),
            me: rank.rank(),
            last_time: SimTime::ZERO,
            last_trace: Trace::new(),
        }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FftPlan {
        &self.plan
    }

    /// Number of local elements this rank holds on the input side.
    #[expect(
        clippy::indexing_slicing,
        reason = "a plan always holds its input distribution and `me` is one of its ranks"
    )]
    pub fn input_len(&self) -> usize {
        self.plan.dists[0].rank_box(self.me).volume()
    }

    /// Number of local elements this rank holds on the output side.
    #[expect(
        clippy::indexing_slicing,
        reason = "a plan always holds its output distribution and `me` is one of its ranks"
    )]
    pub fn output_len(&self) -> usize {
        self.plan.dists[self.plan.dists.len() - 1]
            .rank_box(self.me)
            .volume()
    }

    /// Forward transform of one batch of local arrays (collective).
    pub fn forward(
        &mut self,
        rank: &mut Rank,
        comm: &Comm,
        data: &mut Vec<Vec<C64>>,
        scale: Scale,
    ) -> &Trace {
        self.run(rank, comm, data, Direction::Forward, scale)
    }

    /// Backward (inverse) transform of one batch of local arrays
    /// (collective).
    pub fn backward(
        &mut self,
        rank: &mut Rank,
        comm: &Comm,
        data: &mut Vec<Vec<C64>>,
        scale: Scale,
    ) -> &Trace {
        self.run(rank, comm, data, Direction::Inverse, scale)
    }

    fn run(
        &mut self,
        rank: &mut Rank,
        comm: &Comm,
        data: &mut Vec<Vec<C64>>,
        dir: Direction,
        scale: Scale,
    ) -> &Trace {
        let ExecResult { mut trace, total } = execute(
            &self.plan,
            &self.bound,
            &mut self.ctx,
            rank,
            comm,
            data,
            dir,
        );
        let f = scale.factor(self.plan.total_elems());
        if f != 1.0 {
            for item in data.iter_mut() {
                for v in item.iter_mut() {
                    *v = v.scale(f);
                }
            }
            // Scaling is an element-wise kernel on the device, after the
            // transform has drained (`execute` syncs the clock to `total`).
            let km = rank.world().spec().kernel_model();
            let elems: usize = data.iter().map(|d| d.len()).sum();
            let dur = km.pointwise_ns(elems, 2.0);
            rank.compute_ns(dur);
            trace.push(TraceEvent::Kernel {
                kind: KernelKind::Pointwise,
                start: total,
                dur: SimTime::from_ns(dur),
            });
        }
        self.last_time = rank.now();
        self.last_trace = trace;
        &self.last_trace
    }
}
