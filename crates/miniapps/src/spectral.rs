//! Pseudo-spectral turbulence-style kernel.
//!
//! Spectral fluid solvers (the paper's reference \[28\]: "GPU acceleration of extreme
//! scale pseudo-spectral simulations of turbulence") transform the three
//! velocity components every step: forward FFT, spectral derivative +
//! 2/3-rule dealiasing, inverse FFT. Three independent transforms per step
//! is exactly the workload that batched FFTs (paper Fig. 13) accelerate.

use distfft::dryrun::{DryRunOpts, DryRunner};
use distfft::exec::{bind, execute, ExecCtx};
use distfft::plan::{FftOptions, FftPlan};
use distfft::Box3;
use fftkern::{Direction, C64};
use mpisim::comm::{Comm, World, WorldOpts};
use simgrid::{MachineSpec, SimTime};

/// Configuration of a spectral step.
#[derive(Debug, Clone)]
pub struct SpectralConfig {
    /// Grid extents.
    pub n: [usize; 3],
    /// MPI ranks.
    pub ranks: usize,
    /// FFT options (set `batch = 3` to transform all velocity components
    /// in one batched call).
    pub fft: FftOptions,
}

/// Integer wavenumber of index `i` in a length-`n` axis.
fn wavenumber(i: usize, n: usize) -> f64 {
    if i <= n / 2 {
        i as f64
    } else {
        i as f64 - n as f64
    }
}

/// True when mode `k` survives the 2/3-rule dealiasing filter.
fn keep_mode(k: [f64; 3], n: [usize; 3]) -> bool {
    (0..3).all(|d| k[d].abs() <= n[d] as f64 / 3.0)
}

/// Runs one functional spectral-derivative step on the simulated cluster:
/// transforms `fields` (the velocity components) forward, applies
/// `i·k₀`-differentiation with dealiasing in spectrum space, transforms
/// back. Returns the differentiated fields (global layout) and the
/// simulated time.
pub fn spectral_step(
    machine: &MachineSpec,
    cfg: &SpectralConfig,
    fields: &[Vec<C64>],
) -> (Vec<Vec<C64>>, SimTime) {
    let n = cfg.n;
    let total = n[0] * n[1] * n[2];
    assert!(!fields.is_empty());
    assert!(fields.iter().all(|f| f.len() == total));
    assert_eq!(
        cfg.fft.batch,
        fields.len(),
        "plan batch must cover all components"
    );
    let plan = FftPlan::build(n, cfg.ranks, cfg.fft.clone());
    let world = World::new(machine.clone(), cfg.ranks, WorldOpts::default());
    let whole = Box3::whole(n);
    let km = machine.kernel_model();

    let out = world.run(|rank| {
        let comm = Comm::world(rank);
        let bound = bind(&plan, rank, &comm);
        let mut ctx = ExecCtx::new();
        let in_box = plan.dists[0].rank_box(rank.rank());
        let mut data: Vec<Vec<C64>> = fields.iter().map(|f| whole.extract(f, in_box)).collect();
        execute(
            &plan,
            &bound,
            &mut ctx,
            rank,
            &comm,
            &mut data,
            Direction::Forward,
        );

        // i·k₀ derivative + dealiasing in the spectral (output) layout.
        let b = plan.dists[plan.dists.len() - 1].rank_box(rank.rank());
        if !b.is_empty() {
            for comp in data.iter_mut() {
                let mut idx = 0;
                for i0 in b.lo[0]..b.hi[0] {
                    for i1 in b.lo[1]..b.hi[1] {
                        for i2 in b.lo[2]..b.hi[2] {
                            let k = [
                                wavenumber(i0, n[0]),
                                wavenumber(i1, n[1]),
                                wavenumber(i2, n[2]),
                            ];
                            comp[idx] = if keep_mode(k, n) {
                                let ik = C64::new(0.0, 2.0 * std::f64::consts::PI * k[0]);
                                comp[idx] * ik
                            } else {
                                C64::ZERO
                            };
                            idx += 1;
                        }
                    }
                }
            }
            rank.compute_ns(km.pointwise_ns(b.volume() * data.len(), 14.0));
        }

        execute(
            &plan,
            &bound,
            &mut ctx,
            rank,
            &comm,
            &mut data,
            Direction::Inverse,
        );
        let scale = 1.0 / total as f64;
        for comp in data.iter_mut() {
            for v in comp.iter_mut() {
                *v = v.scale(scale);
            }
        }
        (data, rank.now())
    });

    // Gather.
    let mut result: Vec<Vec<C64>> = vec![vec![C64::ZERO; total]; fields.len()];
    let mut t_max = SimTime::ZERO;
    for (r, (locals, t)) in out.into_iter().enumerate() {
        let b = plan.dists[0].rank_box(r);
        if !b.is_empty() {
            for (c, local) in locals.into_iter().enumerate() {
                whole.deposit(&mut result[c], b, &local);
            }
        }
        t_max = t_max.max(t);
    }
    (result, t_max)
}

/// Analytic per-transform cost comparison: time per 3-D transform when the
/// components are batched vs computed one by one (the Fig. 13 measurement,
/// at any scale). Returns `(batched_per_transform, isolated_per_transform)`.
pub fn batching_comparison(
    machine: &MachineSpec,
    n: [usize; 3],
    ranks: usize,
    batch: usize,
    base: &FftOptions,
) -> (SimTime, SimTime) {
    // Few, large pipeline chunks: message coalescing (latency/protocol/sync
    // amortization) buys more than extra overlap stages for small FFTs.
    let chunks = if batch >= 32 { 4 } else { 2.min(batch) };
    let batched_plan = FftPlan::build(
        n,
        ranks,
        FftOptions {
            batch,
            pipeline_chunks: chunks,
            ..base.clone()
        },
    );
    let single_plan = FftPlan::build(
        n,
        ranks,
        FftOptions {
            batch: 1,
            ..base.clone()
        },
    );

    let mut batched = DryRunner::new(&batched_plan, machine, DryRunOpts::default());
    let t_batched = batched.timed_average(2, 4);
    let per_batched = SimTime::from_ns(t_batched.as_ns() / batch as u64);

    let mut single = DryRunner::new(&single_plan, machine, DryRunOpts::default());
    let per_single = single.timed_average(2, 4);
    (per_batched, per_single)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fftkern::complex::max_abs_diff;

    #[test]
    fn spectral_derivative_of_sine_is_cosine() {
        let n = [16usize, 4, 4];
        let tau = 2.0 * std::f64::consts::PI;
        let mut u = Vec::new();
        let mut expect = Vec::new();
        for i0 in 0..n[0] {
            for _ in 0..n[1] * n[2] {
                let x = i0 as f64 / n[0] as f64;
                u.push(C64::real((tau * x).sin()));
                expect.push(C64::real(tau * (tau * x).cos()));
            }
        }
        let cfg = SpectralConfig {
            n,
            ranks: 4,
            fft: FftOptions {
                batch: 1,
                ..FftOptions::default()
            },
        };
        let (out, t) = spectral_step(&MachineSpec::testbox(2), &cfg, &[u]);
        assert!(max_abs_diff(&out[0], &expect) < 1e-9);
        assert!(t.as_ns() > 0);
    }

    #[test]
    fn dealiasing_kills_high_modes() {
        // A mode above 2N/3... wavenumber n/2 = 8 > 16/3: must vanish.
        let n = [16usize, 4, 4];
        let u: Vec<C64> = (0..n[0] * n[1] * n[2])
            .map(|i| {
                let i0 = i / (n[1] * n[2]);
                C64::real(if i0.is_multiple_of(2) { 1.0 } else { -1.0 }) // pure Nyquist mode
            })
            .collect();
        let cfg = SpectralConfig {
            n,
            ranks: 2,
            fft: FftOptions {
                batch: 1,
                ..FftOptions::default()
            },
        };
        let (out, _) = spectral_step(&MachineSpec::testbox(2), &cfg, &[u]);
        let max = out[0].iter().map(|v| v.abs()).fold(0.0, f64::max);
        assert!(max < 1e-9, "Nyquist mode survived dealiasing: {max}");
    }

    #[test]
    fn batched_components_match_sequential() {
        let n = [8usize, 8, 8];
        let fields: Vec<Vec<C64>> = (0..3)
            .map(|c| {
                (0..512)
                    .map(|i| C64::new((i as f64 * 0.1 + c as f64).sin(), 0.0))
                    .collect()
            })
            .collect();
        let machine = MachineSpec::testbox(2);
        let batched_cfg = SpectralConfig {
            n,
            ranks: 4,
            fft: FftOptions {
                batch: 3,
                pipeline_chunks: 2,
                ..FftOptions::default()
            },
        };
        let (batched, _) = spectral_step(&machine, &batched_cfg, &fields);
        for c in 0..3 {
            let single_cfg = SpectralConfig {
                n,
                ranks: 4,
                fft: FftOptions {
                    batch: 1,
                    ..FftOptions::default()
                },
            };
            let (single, _) = spectral_step(&machine, &single_cfg, &fields[c..c + 1]);
            assert!(
                max_abs_diff(&batched[c], &single[0]) < 1e-10,
                "component {c} differs between batched and sequential"
            );
        }
    }

    #[test]
    fn batching_speeds_up_small_transforms() {
        // Fig. 13's direction: per-transform cost in a batch is lower than
        // isolated. (The full >2× check lives in the fig13 bench harness.)
        let (batched, single) = batching_comparison(
            &MachineSpec::summit(),
            [64, 64, 64],
            12,
            8,
            &FftOptions::default(),
        );
        assert!(
            batched < single,
            "batched per-transform {batched} should beat isolated {single}"
        );
    }
}
