//! The heFFTe-style `Fft3d` facade: scaling conventions and round trips.

use distfft::api::{Fft3d, Scale};
use distfft::plan::FftOptions;
use distfft::{Box3, KernelKind, Trace, TraceEvent};
use fftkern::complex::max_abs_diff;
use fftkern::C64;
use mpisim::comm::{Comm, World, WorldOpts};
use simgrid::{MachineSpec, SimTime};

fn field(n: usize) -> Vec<C64> {
    (0..n)
        .map(|i| C64::new((0.19 * i as f64).sin(), (0.41 * i as f64).cos()))
        .collect()
}

#[test]
fn full_scaled_roundtrip_is_identity() {
    let n = [8usize, 8, 8];
    let ranks = 6;
    let world = World::new(MachineSpec::testbox(2), ranks, WorldOpts::default());
    let errs = world.run(|rank| {
        let comm = Comm::world(rank);
        let mut fft = Fft3d::new(n, FftOptions::default(), rank, &comm);
        let orig = field(fft.input_len());
        let mut data = vec![orig.clone()];
        fft.forward(rank, &comm, &mut data, Scale::None);
        assert_eq!(data[0].len(), fft.output_len());
        fft.backward(rank, &comm, &mut data, Scale::Full);
        assert!(fft.last_time.as_ns() > 0);
        assert!(!fft.last_trace.mpi_call_durations().is_empty());
        max_abs_diff(&data[0], &orig)
    });
    for e in errs {
        assert!(e < 1e-10, "roundtrip error {e}");
    }
}

#[test]
fn symmetric_scaling_is_unitary() {
    // Forward+backward with Symmetric on both = identity; and a single
    // Symmetric forward preserves the L2 norm (Parseval with 1/sqrt(N)).
    let n = [8usize, 4, 4];
    let ranks = 4;
    let world = World::new(MachineSpec::testbox(2), ranks, WorldOpts::default());
    let results = world.run(|rank| {
        let comm = Comm::world(rank);
        let mut fft = Fft3d::new(n, FftOptions::default(), rank, &comm);
        let orig = field(fft.input_len());
        let in_norm: f64 = orig.iter().map(|v| v.norm_sqr()).sum();

        let mut data = vec![orig.clone()];
        fft.forward(rank, &comm, &mut data, Scale::Symmetric);
        let out_norm: f64 = data[0].iter().map(|v| v.norm_sqr()).sum();
        fft.backward(rank, &comm, &mut data, Scale::Symmetric);
        let err = max_abs_diff(&data[0], &orig);
        (in_norm, out_norm, err)
    });
    // Per-rank norms redistribute across ranks; compare the global sums.
    let global_in: f64 = results.iter().map(|(i, _, _)| i).sum();
    let global_out: f64 = results.iter().map(|(_, o, _)| o).sum();
    assert!(
        (global_in - global_out).abs() < 1e-8 * global_in.max(1.0),
        "unitary transform must preserve energy: {global_in} vs {global_out}"
    );
    for (_, _, e) in results {
        assert!(e < 1e-10, "symmetric roundtrip error {e}");
    }
}

#[test]
fn facade_output_layout_matches_plan() {
    let n = [8usize, 8, 8];
    let ranks = 4;
    let world = World::new(MachineSpec::testbox(2), ranks, WorldOpts::default());
    let oks = world.run(|rank| {
        let comm = Comm::world(rank);
        let fft = Fft3d::new(n, FftOptions::default(), rank, &comm);
        let me = rank.rank();
        let in_box: Box3 = *fft.plan().dists[0].rank_box(me);
        fft.input_len() == in_box.volume()
    });
    assert!(oks.into_iter().all(|x| x));
}

#[test]
fn scaling_is_a_traced_kernel_on_the_rank_clock() {
    // The clock pays for the 1/N pass, so `last_time` and `last_trace` must
    // show it: one `Pointwise` kernel, ending at the rank's clock.
    let n = [8usize, 8, 8];
    let world = World::new(MachineSpec::testbox(2), 4, WorldOpts::default());
    world.run(|rank| {
        let comm = Comm::world(rank);
        let mut fft = Fft3d::new(n, FftOptions::default(), rank, &comm);
        let mut data = vec![field(fft.input_len())];
        let pointwise = |t: &Trace| -> Vec<(SimTime, SimTime)> {
            t.events
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::Kernel {
                        kind: KernelKind::Pointwise,
                        start,
                        dur,
                    } => Some((start, dur)),
                    _ => None,
                })
                .collect()
        };

        fft.forward(rank, &comm, &mut data, Scale::None);
        assert_eq!(fft.last_time, rank.now());
        assert!(pointwise(&fft.last_trace).is_empty());

        let before = rank.now();
        fft.backward(rank, &comm, &mut data, Scale::Full);
        assert_eq!(fft.last_time, rank.now());
        let scaled = pointwise(&fft.last_trace);
        let km = rank.world().spec().kernel_model();
        let want = SimTime::from_ns(km.pointwise_ns(data[0].len(), 2.0));
        assert_eq!(scaled.len(), 1, "{:?}", fft.last_trace.events);
        let (start, dur) = scaled[0];
        assert_eq!(dur, want);
        assert!(dur > SimTime::ZERO && start > before);
        assert_eq!(start + dur, rank.now());
    });
}
