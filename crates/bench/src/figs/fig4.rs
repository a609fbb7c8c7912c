//! Figure 4 — average bandwidth per process during a 512³ c2c FFT, strong
//! scaling from 1 to 128 Summit nodes (6 V100 per node), with the
//! GPU-awareness feature switched on and off, for both All-to-All and
//! Point-to-Point exchanges.
//!
//! As in the paper, the bandwidth is *inferred* from the measured pencil
//! communication time through equation (5), with `L = 1 µs`. The paper's
//! observation to reproduce: "network saturation causes an exponential
//! decrease in the average bandwidth achieved by each process".

use crate::{table3_ranks, Figure, Obs, TextTable, N512};
use distfft::dryrun::{DryRunOpts, DryRunner};
use distfft::plan::{CommBackend, FftOptions, FftPlan};
use distfft::procgrid::closest_factor_pair;
use distfft::trace::TraceEvent;
use fftkern::Direction;
use fftmodels::bandwidth::b_pencils;
use simgrid::MachineSpec;

/// Measured pencil-exchange communication time of one forward transform
/// (max across ranks of the two pencil↔pencil reshape calls).
fn pencil_comm_time(machine: &MachineSpec, ranks: usize, backend: CommBackend, aware: bool) -> f64 {
    let plan = FftPlan::build(
        N512,
        ranks,
        FftOptions {
            backend,
            ..FftOptions::default()
        },
    );
    // With brick I/O the plan has 4 reshapes; indices 1 and 2 are the
    // pencil↔pencil exchanges equation (5) models.
    let mut runner = DryRunner::new(
        &plan,
        machine,
        DryRunOpts {
            gpu_aware: aware,
            ..DryRunOpts::default()
        },
    );
    let _ = runner.run(Direction::Forward); // warm up
    let _ = runner.run(Direction::Inverse);
    let rep = runner.run(Direction::Forward);
    let per_rank_max = |reshape_idx: usize| -> f64 {
        rep.traces
            .iter()
            .flat_map(|t| {
                t.events.iter().filter_map(move |e| match e {
                    TraceEvent::MpiCall { reshape, dur, .. } if *reshape == reshape_idx => {
                        Some(dur.as_secs())
                    }
                    _ => None,
                })
            })
            .fold(0.0, f64::max)
    };
    per_rank_max(1) + per_rank_max(2)
}

/// Fig. 4; `obs` gets the profile of the saturated end of the ladder.
pub fn fig4(obs: &Obs) -> Figure {
    let mut f = Figure::new(
        "Fig. 4",
        "average bandwidth per process (eq. 5), 512^3 c2c, 1..128 Summit nodes",
    );
    let m = MachineSpec::summit();
    let n_total = (N512[0] * N512[1] * N512[2]) as f64;
    let latency = 1e-6;

    let mut t = TextTable::new(&[
        "nodes",
        "ranks",
        "PxQ",
        "A2A aware (GB/s)",
        "A2A staged (GB/s)",
        "P2P aware (GB/s)",
        "P2P staged (GB/s)",
    ]);
    // Each row is an independent set of dry runs: evaluate them in
    // parallel, emit in ladder order (identical output to a serial sweep).
    let ladder: Vec<usize> = table3_ranks().into_iter().filter(|&r| r <= 768).collect();
    let rows = fftmodels::par_map(&ladder, |&ranks| {
        let (p, q) = closest_factor_pair(ranks);
        let bw = |backend, aware| {
            let tmeas = pencil_comm_time(&m, ranks, backend, aware);
            b_pencils(n_total, p, q, tmeas, latency) / 1e9
        };
        (
            ranks,
            (p, q),
            bw(CommBackend::AllToAllV, true),
            bw(CommBackend::AllToAllV, false),
            bw(CommBackend::P2p, true),
            bw(CommBackend::P2p, false),
        )
    });
    for (ranks, (p, q), a2a_aware, a2a_staged, p2p_aware, p2p_staged) in &rows {
        t.row(vec![
            format!("{}", ranks / 6),
            format!("{ranks}"),
            format!("{p}x{q}"),
            format!("{a2a_aware:.2}"),
            format!("{a2a_staged:.2}"),
            format!("{p2p_aware:.2}"),
            format!("{p2p_staged:.2}"),
        ]);
    }
    f.table(&t);
    if let [first, .., last] = &rows[..] {
        f.line(format!(
            "A2A GPU-aware bandwidth decays {:.1}x from 1 to 128 nodes\n\
             (paper: exponential decrease from network saturation).",
            first.2 / last.2
        ));
    }

    // --profile-out: the figure infers bandwidth from the pencil exchanges;
    // the profile shows the same thing directly — the send/recv-wait split
    // and the per-reshape queue delay behind the saturation decay. Profile
    // the GPU-aware A2A run at the saturated end of the ladder.
    if obs.profiling() {
        let ranks = 128 * 6;
        let profile = fftprof::profile_config(
            &format!("fig4_a2a_aware_{ranks}r"),
            &m,
            N512,
            ranks,
            FftOptions {
                backend: CommBackend::AllToAllV,
                ..FftOptions::default()
            },
            true,
        );
        obs.emit_profile(&profile);
    }
    f
}
