//! LAMMPS-like mini molecular dynamics with a PPPM KSPACE solver.
//!
//! Reproduces the experiment of Fig. 12: "the runtime breakdown for a
//! standard LAMMPS benchmark [Rhodopsin, 32 K atoms], using 32 nodes and a
//! fixed 512³ FFT grid. The runtime for the KSPACE computation is reduced
//! around 40 % when switching from its default fftMPI (with pencils
//! approach) to heFFTe, for which we select the best parameter settings
//! guided by Fig. 5."
//!
//! The KSPACE phase really runs the distributed FFT (analytically, via the
//! dry-run executor — the machine is 32 simulated Summit nodes); the
//! short-range phases (pair, neighbor, halo communication, integration)
//! carry calibrated per-step cost models so the stacked breakdown has the
//! paper's shape. PPPM uses ik-differentiation: one forward and three
//! inverse transforms per MD step — and because the charge density is
//! *real* (LAMMPS KSPACE "uses 3-D real and complex transforms", §IV-D),
//! the transforms run on the distributed r2c/c2r pipeline
//! ([`distfft::real3d::Real3dPlan`]) at half the complex reshape bytes.

use distfft::dryrun::{DryRunOpts, DryRunner};
use distfft::plan::{CommBackend, FftOptions, IoLayout};
use distfft::real3d::Real3dPlan;
use distfft::Decomp;
use fftkern::Direction;
use simgrid::link::{message_time_ns, TransferCtx};
use simgrid::{MachineSpec, SimTime};

/// Configuration of the Rhodopsin-like benchmark.
#[derive(Debug, Clone)]
pub struct RhodopsinConfig {
    /// Total atoms (the paper's system: 32 000).
    pub atoms: usize,
    /// PPPM FFT grid (the paper fixes 512³).
    pub fft_grid: [usize; 3],
    /// MPI ranks, 1 per GPU (32 Summit nodes ⇒ 192).
    pub ranks: usize,
    /// MD steps to run.
    pub steps: usize,
    /// Distributed-FFT configuration of the KSPACE solver.
    pub fft: FftOptions,
    /// GPU-aware MPI for the KSPACE exchanges.
    pub gpu_aware: bool,
}

impl RhodopsinConfig {
    /// The paper's setup with the *default fftMPI-style* FFT: pencil
    /// decomposition, point-to-point exchanges, host-staged MPI (fftMPI is
    /// not GPU-aware; only its local FFTs run on the device via cuFFT).
    pub fn fftmpi_default(steps: usize) -> RhodopsinConfig {
        RhodopsinConfig {
            atoms: 32_000,
            fft_grid: [512, 512, 512],
            ranks: 192,
            steps,
            fft: FftOptions {
                decomp: Decomp::Pencils,
                // Table I: fftMPI uses MPI_Send / MPI_Irecv (blocking sends).
                backend: CommBackend::P2pBlocking,
                io: IoLayout::Brick,
                ..FftOptions::default()
            },
            gpu_aware: false,
        }
    }

    /// The paper's tuned heFFTe setup, "guided by Fig. 5": at 32 nodes the
    /// phase diagram picks slabs; All-to-All-v with GPU-aware MPI.
    pub fn heffte_tuned(steps: usize) -> RhodopsinConfig {
        RhodopsinConfig {
            fft: FftOptions {
                decomp: Decomp::Slabs,
                backend: CommBackend::AllToAllV,
                io: IoLayout::Brick,
                ..FftOptions::default()
            },
            gpu_aware: true,
            ..RhodopsinConfig::fftmpi_default(steps)
        }
    }
}

/// Per-phase runtime totals, LAMMPS-breakdown style (Fig. 12's stacked
/// categories).
#[derive(Debug, Clone, Default)]
pub struct MdBreakdown {
    /// Short-range pair forces (LJ + real-space Coulomb).
    pub pair: SimTime,
    /// Neighbor-list rebuilds.
    pub neigh: SimTime,
    /// Halo (ghost-atom) exchanges.
    pub comm: SimTime,
    /// Long-range electrostatics: charge spreading, FFTs, Green's-function
    /// multiply, force interpolation.
    pub kspace: SimTime,
    /// Integration, fixes, output.
    pub other: SimTime,
}

impl MdBreakdown {
    /// Total wall time.
    pub fn total(&self) -> SimTime {
        self.pair + self.neigh + self.comm + self.kspace + self.other
    }

    /// Label/value rows in the order LAMMPS prints them.
    pub fn rows(&self) -> Vec<(&'static str, SimTime)> {
        vec![
            ("Pair", self.pair),
            ("Neigh", self.neigh),
            ("Comm", self.comm),
            ("Kspace", self.kspace),
            ("Other", self.other),
        ]
    }
}

/// Average neighbors per atom for the Rhodopsin cutoff (≈10 Å, dense
/// biomolecular system).
const NEIGHBORS_PER_ATOM: f64 = 375.0;
/// FLOPs per pair interaction (LJ + coulomb + virial).
const FLOPS_PER_PAIR: f64 = 55.0;
/// Neighbor rebuild every N steps (LAMMPS default-ish for this benchmark).
const NEIGH_EVERY: usize = 10;
/// PPPM stencil: 5×5×5 charge-assignment points per atom.
const STENCIL_POINTS: f64 = 125.0;
/// Bytes per ghost atom in a halo exchange (position + charge + id).
const GHOST_BYTES: usize = 40;

/// Runs the benchmark and returns the per-phase breakdown (totals over all
/// steps, max across ranks).
pub fn run_rhodopsin(machine: &MachineSpec, cfg: &RhodopsinConfig) -> MdBreakdown {
    let km = machine.kernel_model();
    let atoms_local = (cfg.atoms as f64 / cfg.ranks as f64).ceil();

    // --- KSPACE: the real distributed r2c FFT, dry-run on the machine
    // model. The two inner plans get long-lived runners so the schedule
    // memo amortizes across MD steps (as LAMMPS reuses its fft plans).
    let plan = Real3dPlan::build(cfg.fft_grid, cfg.ranks, cfg.fft.clone());
    let opts = DryRunOpts {
        gpu_aware: cfg.gpu_aware,
        ..DryRunOpts::default()
    };
    let mut run_a = DryRunner::new(&plan.plan_a, machine, opts.clone());
    let mut run_c = DryRunner::new(&plan.plan_c, machine, opts);
    // Warm up once (plan setup, as LAMMPS does during setup).
    let _ = run_a.run(Direction::Forward);
    let _ = run_a.run(Direction::Inverse);
    let _ = run_c.run(Direction::Forward);
    let _ = run_c.run(Direction::Inverse);
    let fwd_pointwise = SimTime::from_ns(plan.pointwise_forward_ns(&km));
    let inv_pointwise = SimTime::from_ns(plan.pointwise_inverse_ns(&km));

    let mut bd = MdBreakdown::default();
    // Green's multiply touches only the non-redundant half-spectrum.
    let half_grid = cfg.fft_grid[0] * cfg.fft_grid[1] * (cfg.fft_grid[2] / 2 + 1);
    let grid_local = (half_grid as f64 / cfg.ranks as f64).ceil() as usize;

    for step in 0..cfg.steps {
        // Pair forces.
        let pair_flops = atoms_local * NEIGHBORS_PER_ATOM * FLOPS_PER_PAIR;
        let pair_ns = km
            .pointwise_ns(atoms_local as usize, 0.0)
            .max((pair_flops / (machine.gpu.fp64_tflops * 1e12 * 0.25) * 1e9).ceil() as u64)
            + km.gpu().launch_ns;
        bd.pair += SimTime::from_ns(pair_ns);

        // Neighbor rebuild.
        if step % NEIGH_EVERY == 0 {
            let neigh_ns = (atoms_local * NEIGHBORS_PER_ATOM * 4.0
                / (machine.gpu.mem_bw_gbs * 0.25))
                .ceil() as u64
                + 3 * km.gpu().launch_ns;
            bd.neigh += SimTime::from_ns(neigh_ns);
        }

        // Halo exchange: 6 face neighbors, ghost shell ≈ half the local atoms.
        let ghost_bytes = (atoms_local * 0.5) as usize * GHOST_BYTES;
        let ctx = TransferCtx {
            gpu_aware: cfg.gpu_aware,
            offnode_flows_per_nic: machine.gpus_per_node,
            nodes_involved: machine.nodes_for(cfg.ranks),
        };
        let halo_ns: u64 = (0..6)
            .map(|_| message_time_ns(machine, ghost_bytes, 0, machine.gpus_per_node, &ctx))
            .sum();
        bd.comm += SimTime::from_ns(halo_ns);

        // KSPACE: charge spreading + 1 forward + Green's multiply + 3
        // inverse + force interpolation.
        let spread_ns = km.pointwise_ns((atoms_local * STENCIL_POINTS) as usize, 12.0);
        let greens_ns = km.pointwise_ns(grid_local, 8.0);
        let interp_ns = km.pointwise_ns((atoms_local * STENCIL_POINTS * 3.0) as usize, 10.0);
        let mut kspace = SimTime::from_ns(spread_ns + greens_ns + interp_ns);
        kspace += run_a.run(Direction::Forward).makespan()
            + run_c.run(Direction::Forward).makespan()
            + fwd_pointwise;
        for _ in 0..3 {
            kspace += run_c.run(Direction::Inverse).makespan()
                + run_a.run(Direction::Inverse).makespan()
                + inv_pointwise;
        }
        bd.kspace += kspace;

        // Integration + thermostat + output amortized.
        let other_ns = km.pointwise_ns(atoms_local as usize, 30.0) + 2 * km.gpu().launch_ns;
        bd.other += SimTime::from_ns(other_ns);
    }
    bd
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summit() -> MachineSpec {
        MachineSpec::summit()
    }

    #[test]
    fn kspace_dominated_by_fft_at_512_grid() {
        let cfg = RhodopsinConfig::heffte_tuned(2);
        let bd = run_rhodopsin(&summit(), &cfg);
        // With a 512³ grid over 192 ranks, KSPACE is the biggest phase.
        assert!(bd.kspace > bd.pair);
        assert!(bd.kspace > bd.comm);
        assert!(bd.total() > bd.kspace);
    }

    #[test]
    fn tuned_heffte_cuts_kspace_around_40_percent() {
        // The Fig. 12 headline. "Around 40%" — accept 25–55 %.
        let steps = 3;
        let default = run_rhodopsin(&summit(), &RhodopsinConfig::fftmpi_default(steps));
        let tuned = run_rhodopsin(&summit(), &RhodopsinConfig::heffte_tuned(steps));
        let reduction = 1.0 - tuned.kspace.as_ns() as f64 / default.kspace.as_ns() as f64;
        assert!(
            (0.25..=0.55).contains(&reduction),
            "KSPACE reduction {:.1}% outside the paper's ~40% band \
             (default {}, tuned {})",
            reduction * 100.0,
            default.kspace,
            tuned.kspace
        );
    }

    #[test]
    fn non_kspace_phases_unaffected_by_fft_choice() {
        let steps = 2;
        let a = run_rhodopsin(&summit(), &RhodopsinConfig::fftmpi_default(steps));
        let b = run_rhodopsin(&summit(), &RhodopsinConfig::heffte_tuned(steps));
        assert_eq!(a.pair, b.pair);
        assert_eq!(a.neigh, b.neigh);
        assert_eq!(a.other, b.other);
    }

    #[test]
    fn breakdown_scales_with_steps() {
        let one = run_rhodopsin(&summit(), &RhodopsinConfig::heffte_tuned(1));
        let three = run_rhodopsin(&summit(), &RhodopsinConfig::heffte_tuned(3));
        assert!(three.total() > one.total());
        assert!(three.kspace > one.kspace);
    }

    #[test]
    fn rows_are_the_lammps_categories() {
        let bd = MdBreakdown::default();
        let labels: Vec<&str> = bd.rows().iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, vec!["Pair", "Neigh", "Comm", "Kspace", "Other"]);
    }
}
