//! §III model survey — the paper lists three literature models for FFT
//! communication cost and then builds its own (equations (2)/(3)). This
//! harness tabulates all four against the simulated machine's measured
//! communication time for a 512³ transform.

use crate::{table3_ranks, timed_average_with_comm, Figure, TextTable, N512};
use distfft::plan::FftOptions;
use distfft::procgrid::closest_factor_pair;
use fftmodels::bandwidth::{t_pencils, ModelParams};
use fftmodels::literature::{
    bisection_model, fat_tree_bisection_bps, fit_power_law, power_law, torus_lower_bound,
};
use simgrid::MachineSpec;

pub fn models_compare() -> Figure {
    let mut f = Figure::new(
        "models",
        "measured 512^3 comm time vs the Section III cost models",
    );
    let machine = MachineSpec::summit();
    let params = ModelParams::summit();
    let n_total = (N512[0] * N512[1] * N512[2]) as f64;

    // Measure.
    let measured: Vec<(usize, f64)> = table3_ranks()
        .into_iter()
        .filter(|&r| r <= 1536)
        .map(|ranks| {
            let (_, comm) =
                timed_average_with_comm(&machine, N512, ranks, FftOptions::default(), true);
            (ranks, comm.as_secs())
        })
        .collect();

    // Fit the Chatterjee-style regression T = c·nodes^-gamma on the data.
    let samples: Vec<(f64, f64)> = measured
        .iter()
        .map(|(r, t)| ((*r / 6) as f64, *t))
        .collect();
    let (c, gamma) = fit_power_law(&samples);

    let mut t = TextTable::new(&[
        "nodes",
        "measured (s)",
        "eq.(3) pencils (s)",
        "bisection N/sigma (s)",
        "regression c*n^-g (s)",
        "torus lower bound (s)",
    ]);
    for (ranks, meas) in &measured {
        let nodes = ranks / 6;
        let (p, q) = closest_factor_pair(*ranks);
        t.row(vec![
            format!("{nodes}"),
            format!("{meas:.4}"),
            format!("{:.4}", t_pencils(n_total, p, q, &params)),
            format!(
                "{:.4}",
                bisection_model(n_total, fat_tree_bisection_bps(nodes, 23.5e9))
            ),
            format!("{:.4}", power_law(c, gamma, nodes as f64)),
            format!("{:.4}", torus_lower_bound(n_total, *ranks, 23.5e9)),
        ]);
    }
    f.table(&t);
    f.line(format!(
        "fitted regression exponent gamma = {gamma:.2} (Chatterjee et al. style);\n\
         eq.(3) uses B = 23.5 GB/s, L = 1 us as in the paper's Section IV-A."
    ));
    f
}
