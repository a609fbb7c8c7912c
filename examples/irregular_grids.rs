//! General (irregular) input grids + the heFFTe-style facade + phase summary.
//!
//! Real simulations hand the FFT whatever domain partition their load
//! balancer produced — §III: "the only libraries allowing general
//! input/output grids are fftMPI, heFFTe and SWFFT". This example feeds an
//! L-shaped, non-grid partition through the transform via
//! `Distribution::from_boxes`, uses the high-level `Fft3d` facade, and
//! prints where the inverse transform's simulated time went, per phase.
//!
//! Run with: `cargo run --release --example irregular_grids`

use distfft::api::{Fft3d, Scale};
use distfft::plan::{FftOptions, FftPlan};
use distfft::procgrid::Distribution;
use distfft::{trace, Box3};
use fftkern::C64;
use mpisim::comm::{Comm, World, WorldOpts};
use simgrid::MachineSpec;

fn main() {
    let n = [32usize, 32, 32];
    let ranks = 4;

    // An irregular partition no processor grid can express: a thick front
    // slab plus an L-shaped split of the back.
    let boxes = vec![
        Box3::new([0, 0, 0], [32, 32, 12]),
        Box3::new([0, 0, 12], [20, 32, 32]),
        Box3::new([20, 0, 12], [32, 16, 32]),
        Box3::new([20, 16, 12], [32, 32, 32]),
    ];
    println!("input boxes:");
    for (r, b) in boxes.iter().enumerate() {
        println!(
            "  rank {r}: {:?} -> {:?}  ({} elements)",
            b.lo,
            b.hi,
            b.volume()
        );
    }

    let input = Distribution::from_boxes(n, boxes.clone());
    let output = Distribution::from_boxes(n, boxes);
    let plan = FftPlan::build_with_io(n, ranks, FftOptions::default(), input, output);
    println!(
        "plan: {} exchanges per transform (irregular I/O adds boundary reshapes)",
        plan.exchange_count()
    );

    let world = World::new(MachineSpec::summit(), ranks, WorldOpts::default());
    let results = world.run(|rank| {
        let comm = Comm::world(rank);
        let mut fft = Fft3d::from_plan(plan.clone(), rank, &comm);

        let orig: Vec<C64> = (0..fft.input_len())
            .map(|i| C64::new((0.05 * i as f64).sin(), 0.0))
            .collect();
        let mut data = vec![orig.clone()];
        fft.forward(rank, &comm, &mut data, Scale::None);
        fft.backward(rank, &comm, &mut data, Scale::Full);

        let err = data[0]
            .iter()
            .zip(&orig)
            .map(|(g, w)| (*g - *w).abs())
            .fold(0.0, f64::max);
        (err, fft.last_trace.clone())
    });

    let mut traces = Vec::new();
    for (r, (err, trace)) in results.into_iter().enumerate() {
        assert!(err < 1e-10, "rank {r} round-trip error {err}");
        traces.push(trace);
    }
    println!("round trip through the irregular layout: OK");
    println!();
    println!("inverse-transform phases (scaling kernel included):");
    print!("{}", trace::phase_summary(&traces));
}
