//! Distributed output against an independent serial reference, bit for
//! bit. The oracle transforms the whole global array axis by axis, in the
//! order of the plan's `LocalFft` steps (mirrored for the inverse), with
//! `fftkern::plan::Plan1d` on the layouts the executor gives each axis:
//! packed rows for axis 2, one strided batch per axis-0 plane for axis 1,
//! one strided batch over the whole array for axis 0. Every line of a
//! batch is bitwise the line transformed alone (`fftkern`'s equivalence
//! suite), so a distributed run must reproduce the oracle exactly: the
//! reshapes move values and never change one. The replay suites compare a
//! run only with its own reruns; this pins the bits against a reference
//! that shares no code with the executor.

mod common;

use common::{Bits, GRIDS};
use distfft::exec::{bind, execute, ExecCtx};
use distfft::plan::{CommBackend, FftOptions, FftPlan, Step};
use distfft::{Box3, Decomp};
use fftkern::plan::{Layout, Plan1d};
use fftkern::{Direction, C64};
use mpisim::comm::{Comm, World, WorldOpts};
use simgrid::MachineSpec;

/// Deterministic pseudo-random field.
fn field(n: [usize; 3]) -> Vec<C64> {
    (0..n[0] * n[1] * n[2])
        .map(|i| {
            let x = i as f64;
            C64::new((x * 0.37).sin() + 0.1, (x * 0.91).cos() - 0.2)
        })
        .collect()
}

fn bits(data: &[C64]) -> Bits {
    data.iter()
        .map(|c| (c.re.to_bits(), c.im.to_bits()))
        .collect()
}

/// Applies `plan`'s local transforms to the global row-major array in
/// `dir`'s step order.
fn serial(plan: &FftPlan, global: &mut [C64], dir: Direction) {
    let [n0, n1, n2] = plan.n;
    let mut axes: Vec<usize> = plan
        .steps
        .iter()
        .filter_map(|s| match *s {
            Step::LocalFft { axis, .. } => Some(axis),
            Step::Reshape(_) => None,
        })
        .collect();
    if dir == Direction::Inverse {
        axes.reverse();
    }
    let strided =
        |n, batch| Plan1d::with_layout(n, batch, Layout::strided(batch), Layout::strided(batch));
    for axis in axes {
        match axis {
            2 => Plan1d::contiguous(n2, n0 * n1).execute_inplace(global, dir),
            1 => {
                let p = strided(n1, n2);
                global
                    .chunks_exact_mut(n1 * n2)
                    .for_each(|plane| p.execute_inplace(plane, dir));
            }
            _ => strided(n0, n1 * n2).execute_inplace(global, dir),
        }
    }
}

/// The global array assembled from each rank's local array on `plan.dists[d]`.
fn gather(plan: &FftPlan, d: usize, locals: &[Vec<C64>]) -> Vec<C64> {
    let whole = Box3::whole(plan.n);
    let mut global = vec![C64::ZERO; plan.total_elems()];
    for (r, local) in locals.iter().enumerate() {
        let b = plan.dists[d].rank_box(r);
        if !b.is_empty() {
            whole.deposit(&mut global, b, local);
        }
    }
    global
}

/// Forward then inverse of `plan` on every rank; the global forward output
/// and the global round trip.
fn distributed(plan: &FftPlan, global: &[C64]) -> (Vec<C64>, Vec<C64>) {
    let world = World::new(MachineSpec::testbox(2), plan.nranks, WorldOpts::default());
    let whole = Box3::whole(plan.n);
    let runs = world.run(|rank| {
        let comm = Comm::world(rank);
        let bound = bind(plan, rank, &comm);
        let mut ctx = ExecCtx::new();
        let mut data = vec![whole.extract(global, plan.dists[0].rank_box(rank.rank()))];
        let mut run = |dir| {
            execute(plan, &bound, &mut ctx, rank, &comm, &mut data, dir);
            data[0].clone()
        };
        (run(Direction::Forward), run(Direction::Inverse))
    });
    let (fwd, inv): (Vec<_>, Vec<_>) = runs.into_iter().unzip();
    (
        gather(plan, plan.dists.len() - 1, &fwd),
        gather(plan, 0, &inv),
    )
}

#[test]
fn distributed_transforms_are_bitwise_the_serial_per_axis_oracle() {
    // Pow2, smooth and prime (Bluestein) axes, and a 32³ cube whose 32-point
    // rows take the packed panel; pencils and slabs; monolithic, fixed and
    // model-picked reshape chunking over three backends.
    let configs = [
        (4, 1, CommBackend::AllToAllV),
        (8, 4, CommBackend::P2p),
        (6, 0, CommBackend::AllToAllW),
    ];
    for n in GRIDS.into_iter().chain([[32; 3]]) {
        for decomp in [Decomp::Pencils, Decomp::Slabs] {
            for (ranks, reshape_chunks, backend) in configs {
                let opts = FftOptions {
                    decomp,
                    backend,
                    reshape_chunks,
                    ..FftOptions::default()
                };
                let plan = FftPlan::build(n, ranks, opts);
                let what =
                    format!("n={n:?} {decomp:?} ranks={ranks} chunks={reshape_chunks} {backend:?}");
                let global = field(n);
                let (fwd, inv) = distributed(&plan, &global);

                let mut want = global;
                serial(&plan, &mut want, Direction::Forward);
                assert_eq!(bits(&fwd), bits(&want), "forward: {what}");
                serial(&plan, &mut want, Direction::Inverse);
                assert_eq!(bits(&inv), bits(&want), "inverse: {what}");
            }
        }
    }
}
