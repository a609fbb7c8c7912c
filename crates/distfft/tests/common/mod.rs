//! The one world-run helper of the replay suites (`sanitize`,
//! `simd_invariance`, `chunked_reshape`): the determinism contract
//! (DESIGN.md §12) is `assert_eq!` on what this returns.
#![allow(dead_code)] // each suite uses its own subset

use distfft::boxes::Box3;
use distfft::exec::{bind, execute, ExecCtx, ExecWork};
use distfft::plan::{FftOptions, FftPlan};
use distfft::trace::Trace;
use fftkern::{Direction, C64};
use mpisim::comm::{Comm, RankWork, World, WorldOpts};
use simgrid::{MachineSpec, SimTime};

/// Pow2 axes (Stockham 8/4/2 stages), smooth non-pow2 axes (radix-3/5/7
/// stages: 12 = 4·3, 10 = 2·5, 14 = 2·7) and a prime axis (Bluestein).
/// Axis 2 runs packed, axes 0/1 strided — both local-FFT modes per grid.
pub const GRIDS: [[usize; 3]; 3] = [[16, 16, 8], [12, 10, 14], [13, 16, 8]];

/// One rank's local data, bit for bit.
pub type Bits = Vec<(u64, u64)>;

/// Everything one rank of a forward + inverse run claims happened (small
/// fields first, so a failed `assert_eq!` shows them at the top).
#[derive(Debug, Clone, PartialEq)]
pub struct RankRun {
    /// Simulated completion time of the inverse transform.
    pub total: SimTime,
    /// The rank's host work: its `ExecCtx`'s and its `mpisim` rank's.
    pub work: (ExecWork, RankWork),
    /// Pool takes minus deposits (`ExecCtx::outstanding_buffers`).
    pub outstanding: i64,
    /// Forward then inverse events.
    pub trace: Trace,
    /// Final local data.
    pub bits: Bits,
}

/// The jittered world every replay test runs in: per-message noise makes
/// simulated time sensitive to anything that reorders pricing.
pub fn jittered() -> WorldOpts {
    WorldOpts {
        noise_amplitude: 0.05,
        seed: 0xC0FFEE,
        ..WorldOpts::default()
    }
}

/// Forward + inverse transform of one seeded grid on every rank.
pub fn run_world(
    n: [usize; 3],
    ranks: usize,
    opts: FftOptions,
    world_opts: WorldOpts,
) -> Vec<RankRun> {
    let plan = FftPlan::build(n, ranks, opts);
    let world = World::new(MachineSpec::testbox(2), ranks, world_opts);
    let whole = Box3::whole(n);
    let global: Vec<C64> = (0..n[0] * n[1] * n[2])
        .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.61).cos()))
        .collect();
    world.run(|rank| {
        let comm = Comm::world(rank);
        let bound = bind(&plan, rank, &comm);
        let mut ctx = ExecCtx::new();
        let mut data = vec![whole.extract(&global, plan.dists[0].rank_box(rank.rank()))];
        let mut run = |dir| execute(&plan, &bound, &mut ctx, rank, &comm, &mut data, dir);
        let mut trace = run(Direction::Forward).trace;
        let inv = run(Direction::Inverse);
        trace.events.extend(inv.trace.events);
        RankRun {
            total: inv.total,
            work: (ctx.work(), rank.work()),
            outstanding: ctx.outstanding_buffers(),
            trace,
            bits: data[0]
                .iter()
                .map(|c| (c.re.to_bits(), c.im.to_bits()))
                .collect(),
        }
    })
}

/// Data, completion time and trace of a world run — everything but the
/// work record and the pool balance.
pub fn observable(runs: &[RankRun]) -> Vec<(SimTime, &Trace, &Bits)> {
    runs.iter().map(|r| (r.total, &r.trace, &r.bits)).collect()
}
