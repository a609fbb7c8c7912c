//! The five workloads, their plans and their seeded inputs.
//!
//! Every option the system would otherwise pick for itself is pinned here:
//! all `FftOptions` fields, `WorldOpts`/`DryRunOpts` (spelled out field by
//! field — they equal the crates' defaults today, and stay what they are if
//! a default moves), `MachineSpec::summit()` and `ExecCtx::with_threads(1)`.

use distfft::dryrun::DryRunOpts;
use distfft::plan::{CommBackend, FftOptions, FftPlan, IoLayout};
use distfft::real3d::Real3dPlan;
use distfft::{Box3, Decomp};
use fftkern::{Direction, C64};
use mpisim::comm::WorldOpts;
use mpisim::MpiDistro;
use simgrid::MachineSpec;

use crate::util::SplitMix64;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Forward + inverse `distfft::exec::execute` pair.
    C2c,
    /// `Real3dPlan::execute_forward` + `execute_inverse` pair.
    R2c,
    /// Analytic only: `DryRunner::new` + `timed_average(2, 4)` over
    /// [`DRYRUN_CONFIGS`].
    DryRun,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub n: usize,
    pub ranks: usize,
    pub decomp: Decomp,
    pub backend: CommBackend,
    pub reshape_chunks: usize,
    /// Fresh-process cold starts behind one `setup_s` sample set.
    pub cold_starts: usize,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "serial-64",
        why: "1 rank, 64^3 c2c round trip: the plain single-threaded baseline; fftkern butterflies do all the work, mpisim none; in-L2 so it repeats",
        kind: Kind::C2c,
        n: 64,
        ranks: 1,
        decomp: Decomp::Pencils,
        backend: CommBackend::AllToAllV,
        reshape_chunks: 1,
        cold_starts: 21,
    },
    Workload {
        name: "pencil-128x8",
        why: "8 ranks, 128^3 c2c pencils, brick I/O, Alltoallv: kernels, pack/unpack (512 MiB per op) and exchanges all matter; a fused-pack or exchange change must show here",
        kind: Kind::C2c,
        n: 128,
        ranks: 8,
        decomp: Decomp::Pencils,
        backend: CommBackend::AllToAllV,
        reshape_chunks: 1,
        cold_starts: 11,
    },
    Workload {
        name: "small-32x24",
        why: "24 ranks (4 Summit nodes), 32^3 c2c: butterflies are a few percent; the op is mailbox wakes, control rounds, schedule pricing and thread scheduling, so mpisim does most of the work",
        kind: Kind::C2c,
        n: 32,
        ranks: 24,
        decomp: Decomp::Pencils,
        backend: CommBackend::AllToAllV,
        reshape_chunks: 1,
        cold_starts: 21,
    },
    Workload {
        name: "r2c-slab-p2p-60x6",
        why: "6 ranks, 60^3 r2c->c2r, slabs, P2p, 4 reshape chunks: mixed-radix lines, r2c untangle, slab reshape, point-to-point backend and the chunked transform-ahead path no default run executes",
        kind: Kind::R2c,
        n: 60,
        ranks: 6,
        decomp: Decomp::Slabs,
        backend: CommBackend::P2p,
        reshape_chunks: 4,
        cold_starts: 21,
    },
    Workload {
        name: "dryrun-512x192",
        why: "analytic only, 512^3 on 192 ranks, 4 backends x {1,4} chunks: the simulated clock and figure-regeneration cost; exit-time walkers, SchedMemo and link pricing work, fftkern numerics do nothing",
        kind: Kind::DryRun,
        n: 512,
        ranks: 192,
        decomp: Decomp::Pencils,
        backend: CommBackend::AllToAllV,
        reshape_chunks: 1,
        cold_starts: 5,
    },
];

/// The eight `(backend, reshape_chunks)` plans one dry-run op prices.
pub const DRYRUN_CONFIGS: [(CommBackend, usize); 8] = [
    (CommBackend::AllToAll, 1),
    (CommBackend::AllToAll, 4),
    (CommBackend::AllToAllV, 1),
    (CommBackend::AllToAllV, 4),
    (CommBackend::AllToAllW, 1),
    (CommBackend::AllToAllW, 4),
    (CommBackend::P2p, 1),
    (CommBackend::P2p, 4),
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn machine() -> MachineSpec {
    MachineSpec::summit()
}

pub fn world_opts() -> WorldOpts {
    WorldOpts {
        gpu_aware: true,
        distro: MpiDistro::SpectrumMpi,
        noise_amplitude: 0.0,
        seed: 0xF0F0_1234,
        compute_slowdown: Vec::new(),
        sched_memo: true,
        fused_meta: true,
    }
}

pub fn dryrun_opts() -> DryRunOpts {
    DryRunOpts {
        gpu_aware: true,
        distro: MpiDistro::SpectrumMpi,
        noise_amplitude: 0.0,
        seed: 0xF0F0_1234,
        compute_slowdown: Vec::new(),
        sched_memo: true,
    }
}

impl Workload {
    pub fn options(&self, backend: CommBackend, reshape_chunks: usize) -> FftOptions {
        FftOptions {
            decomp: self.decomp,
            backend,
            io: IoLayout::Brick,
            contiguous_fft: false,
            shrink_to: None,
            batch: 1,
            pipeline_chunks: 4,
            reshape_chunks,
        }
    }

    pub fn dims(&self) -> [usize; 3] {
        [self.n; 3]
    }

    pub fn build_plans(&self) -> Plans {
        let opts = self.options(self.backend, self.reshape_chunks);
        match self.kind {
            Kind::C2c => Plans::C2c(FftPlan::build(self.dims(), self.ranks, opts)),
            Kind::R2c => Plans::R2c(Box::new(Real3dPlan::build(self.dims(), self.ranks, opts))),
            Kind::DryRun => Plans::DryRun(
                DRYRUN_CONFIGS
                    .iter()
                    .map(|&(b, k)| FftPlan::build(self.dims(), self.ranks, self.options(b, k)))
                    .collect(),
            ),
        }
    }

    /// Nominal flops of one op (forward + inverse) at 5·N·log₂N per complex
    /// transform, half that for a real one. Computed, not measured.
    pub fn flops_per_op(&self) -> f64 {
        let n = (self.n * self.n * self.n) as f64;
        let c2c = 2.0 * 5.0 * n * n.log2();
        match self.kind {
            Kind::C2c => c2c,
            Kind::R2c => c2c / 2.0,
            Kind::DryRun => 0.0,
        }
    }
}

pub enum Plans {
    C2c(FftPlan),
    R2c(Box<Real3dPlan>),
    DryRun(Vec<FftPlan>),
}

impl Plans {
    /// The `(plan, direction)` transforms one op executes, in order.
    pub fn transforms(&self) -> Vec<(&FftPlan, Direction)> {
        use Direction::{Forward, Inverse};
        match self {
            Plans::C2c(p) => vec![(p, Forward), (p, Inverse)],
            Plans::R2c(r) => vec![
                (&r.plan_a, Forward),
                (&r.plan_c, Forward),
                (&r.plan_c, Inverse),
                (&r.plan_a, Inverse),
            ],
            Plans::DryRun(ps) => ps
                .iter()
                .flat_map(|p| [(p, Forward), (p, Inverse)])
                .collect(),
        }
    }

    /// The distinct `FftPlan`s behind the workload.
    pub fn inner(&self) -> Vec<&FftPlan> {
        match self {
            Plans::C2c(p) => vec![p],
            Plans::R2c(r) => vec![&r.plan_a, &r.plan_c],
            Plans::DryRun(ps) => ps.iter().collect(),
        }
    }
}

/// The seeded global input of a functional workload: every value uniform
/// in [-1, 1). The crates only ever see these arrays.
pub enum Input {
    Complex(Vec<C64>),
    Real(Vec<f64>),
}

pub fn generate_input(w: &Workload, seed: u64) -> Input {
    let mut rng = SplitMix64::new(seed);
    let total = w.n * w.n * w.n;
    match w.kind {
        Kind::C2c => Input::Complex(
            (0..total)
                .map(|_| C64::new(rng.next_unit(), rng.next_unit()))
                .collect(),
        ),
        Kind::R2c => Input::Real((0..total).map(|_| rng.next_unit()).collect()),
        Kind::DryRun => Input::Real(Vec::new()),
    }
}

/// Row-major sub-block `region` of a global `dims` array.
pub fn extract_real(global: &[f64], dims: [usize; 3], region: &Box3) -> Vec<f64> {
    let mut out = Vec::with_capacity(region.volume());
    for i in region.lo[0]..region.hi[0] {
        for j in region.lo[1]..region.hi[1] {
            let row = (i * dims[1] + j) * dims[2];
            out.extend_from_slice(&global[row + region.lo[2]..row + region.hi[2]]);
        }
    }
    out
}

/// The serial reference spectrum (`fftkern::nd::fft_3d` on the whole grid)
/// and the domain it lives on: the full grid for c2c, the non-redundant
/// half `[n0, n1, n2/2 + 1]` for r2c.
pub fn oracle_spectrum(w: &Workload, input: &Input) -> (Vec<C64>, [usize; 3]) {
    let [n0, n1, n2] = w.dims();
    match input {
        Input::Complex(g) => {
            let mut want = g.clone();
            fftkern::nd::fft_3d(&mut want, n0, n1, n2, Direction::Forward);
            (want, [n0, n1, n2])
        }
        Input::Real(g) => {
            let mut full: Vec<C64> = g.iter().map(|&x| C64::real(x)).collect();
            fftkern::nd::fft_3d(&mut full, n0, n1, n2, Direction::Forward);
            let h = n2 / 2 + 1;
            let half = full
                .chunks_exact(n2)
                .flat_map(|row| row[..h].iter().copied())
                .collect();
            (half, [n0, n1, h])
        }
    }
}
