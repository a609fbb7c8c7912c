//! HACC-like spectral Poisson solver.
//!
//! N-body codes like HACC (paper §IV-D) solve `∇²φ = ρ` in Fourier space
//! every long-range step: forward 3-D FFT of the density, multiply by the
//! Green's function `−1/|k|²`, inverse transform. The density is *real*, so
//! the solver runs on the distributed r2c/c2r pipeline ([`Real3dPlan`]) —
//! half the complex work and half the reshape bytes of embedding the reals
//! into complex — and the Green's multiply touches only the non-redundant
//! half-spectrum. The pipeline runs *functionally* on the simulated cluster
//! and is verified against analytic solutions — the end-to-end proof that
//! the distributed FFT is usable by a real solver.

use distfft::exec::ExecCtx;
use distfft::plan::FftOptions;
use distfft::real3d::Real3dPlan;
use fftkern::{Direction, C64};
use mpisim::comm::{Comm, World, WorldOpts};
use simgrid::{MachineSpec, SimTime};

/// Result of a distributed Poisson solve.
#[derive(Debug, Clone)]
pub struct PoissonResult {
    /// Relative L2 error against the reference solution.
    pub rel_error: f64,
    /// Simulated wall time of the solve (max over ranks).
    pub time: SimTime,
    /// The assembled global solution (real field, row-major).
    pub phi: Vec<f64>,
}

/// Integer wavenumber of index `i` in a length-`n` axis (standard FFT
/// ordering: `0, 1, …, n/2, −n/2+1, …, −1`).
fn wavenumber(i: usize, n: usize) -> f64 {
    if i <= n / 2 {
        i as f64
    } else {
        i as f64 - n as f64
    }
}

/// `−1/|k|²` Green's function on the unit torus (zero mode gauged to 0).
fn greens(k: [f64; 3]) -> f64 {
    let k2 = (k[0] * k[0] + k[1] * k[1] + k[2] * k[2]) * (2.0 * std::f64::consts::PI).powi(2);
    if k2 == 0.0 {
        0.0
    } else {
        -1.0 / k2
    }
}

/// Serial reference: solves `∇²φ = ρ` on an `n` grid with the local engine
/// (full complex transform of the embedded reals — deliberately *not* the
/// r2c path, so the distributed solver is checked against an independent
/// pipeline).
pub fn solve_poisson_local(n: [usize; 3], rho: &[f64]) -> Vec<f64> {
    let mut spec: Vec<C64> = rho.iter().map(|&v| C64::real(v)).collect();
    fftkern::nd::fft_3d(&mut spec, n[0], n[1], n[2], Direction::Forward);
    for i0 in 0..n[0] {
        for i1 in 0..n[1] {
            for i2 in 0..n[2] {
                let g = greens([
                    wavenumber(i0, n[0]),
                    wavenumber(i1, n[1]),
                    wavenumber(i2, n[2]),
                ]);
                let idx = (i0 * n[1] + i1) * n[2] + i2;
                spec[idx] = spec[idx].scale(g);
            }
        }
    }
    fftkern::nd::fft_3d(&mut spec, n[0], n[1], n[2], Direction::Inverse);
    fftkern::nd::normalize(&mut spec, n[0] * n[1] * n[2]);
    spec.iter().map(|z| z.re).collect()
}

/// Extracts a rank's real-input block (row-major over
/// [`Real3dPlan::real_input_box`]) from the global field.
fn scatter_reals(global: &[f64], plan: &Real3dPlan, rank: usize) -> Vec<f64> {
    let b = plan.real_input_box(rank);
    let mut out = Vec::with_capacity(b.volume());
    for i0 in b.lo[0]..b.hi[0] {
        for i1 in b.lo[1]..b.hi[1] {
            for i2 in b.lo[2]..b.hi[2] {
                out.push(global[(i0 * plan.n[1] + i1) * plan.n[2] + i2]);
            }
        }
    }
    out
}

/// Solves `∇²φ = ρ` on the simulated cluster: scatter the real density,
/// forward r2c transform, per-rank Green's multiply on the half-spectrum
/// (a pointwise GPU kernel), inverse c2r transform, gather. The error is
/// measured against the serial reference solution.
pub fn solve_poisson_distributed(
    machine: &MachineSpec,
    nranks: usize,
    n: [usize; 3],
    opts: FftOptions,
    rho: &[f64],
) -> PoissonResult {
    assert_eq!(rho.len(), n[0] * n[1] * n[2]);
    let plan = Real3dPlan::build(n, nranks, opts);
    let world = World::new(machine.clone(), nranks, WorldOpts::default());

    let km = machine.kernel_model();
    let norm = plan.normalization();
    let out = world.run(|rank| {
        let comm = Comm::world(rank);
        let bound = plan.bind(rank, &comm);
        let mut ctx = ExecCtx::new();

        // Scatter (input layout = the plan's real brick) + forward r2c.
        let mine = scatter_reals(rho, &plan, rank.rank());
        let mut spec = plan.execute_forward(&bound, &mut ctx, rank, &comm, &mine);

        // Green's-function multiply on the rank's half-spectrum block. The
        // non-redundant bins carry k₂ = 0…n₂/2, so `wavenumber` is already
        // in range; conjugate symmetry survives because the multiplier is
        // real and even in k.
        let b = plan.spectrum_box(rank.rank());
        if !b.is_empty() {
            let mut idx = 0;
            for i0 in b.lo[0]..b.hi[0] {
                for i1 in b.lo[1]..b.hi[1] {
                    for i2 in b.lo[2]..b.hi[2] {
                        let g = greens([
                            wavenumber(i0, n[0]),
                            wavenumber(i1, n[1]),
                            wavenumber(i2, n[2]),
                        ]);
                        spec[idx] = spec[idx].scale(g);
                        idx += 1;
                    }
                }
            }
            rank.compute_ns(km.pointwise_ns(b.volume(), 10.0));
        }

        let back = plan.execute_inverse(&bound, &mut ctx, rank, &comm, spec);
        // Normalize (unnormalized transforms scale by N).
        let phi: Vec<f64> = back.iter().map(|v| v / norm).collect();
        (phi, rank.now())
    });

    // Gather and compare.
    let mut phi = vec![0.0f64; n[0] * n[1] * n[2]];
    let mut t_max = SimTime::ZERO;
    for (r, (local, t)) in out.into_iter().enumerate() {
        let b = plan.real_input_box(r);
        if !b.is_empty() {
            let mut idx = 0;
            for i0 in b.lo[0]..b.hi[0] {
                for i1 in b.lo[1]..b.hi[1] {
                    for i2 in b.lo[2]..b.hi[2] {
                        phi[(i0 * n[1] + i1) * n[2] + i2] = local[idx];
                        idx += 1;
                    }
                }
            }
        }
        t_max = t_max.max(t);
    }
    let reference = solve_poisson_local(n, rho);
    let num: f64 = phi
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    let den: f64 = reference.iter().map(|v| v * v).sum();
    let rel_error = if den == 0.0 {
        num.sqrt()
    } else {
        (num / den).sqrt()
    };
    PoissonResult {
        rel_error,
        time: t_max,
        phi,
    }
}

/// A smooth test density: a superposition of low-frequency modes with zero
/// mean (so the Poisson problem is well-posed on the torus).
pub fn test_density(n: [usize; 3]) -> Vec<f64> {
    let tau = 2.0 * std::f64::consts::PI;
    let mut rho = Vec::with_capacity(n[0] * n[1] * n[2]);
    for i0 in 0..n[0] {
        for i1 in 0..n[1] {
            for i2 in 0..n[2] {
                let (x, y, z) = (
                    i0 as f64 / n[0] as f64,
                    i1 as f64 / n[1] as f64,
                    i2 as f64 / n[2] as f64,
                );
                let v = (tau * x).sin() + 0.5 * (2.0 * tau * y).cos() * (tau * z).sin()
                    - 0.25 * (tau * (x + y)).cos() * (tau * z).cos();
                rho.push(v);
            }
        }
    }
    rho
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn local_solver_matches_analytic_single_mode() {
        // ρ = sin(2πx) ⇒ φ = −sin(2πx)/(2π)².
        let n = [16usize, 4, 4];
        let tau = 2.0 * std::f64::consts::PI;
        let mut rho = Vec::new();
        let mut expect = Vec::new();
        for i0 in 0..n[0] {
            for _ in 0..n[1] * n[2] {
                let x = i0 as f64 / n[0] as f64;
                rho.push((tau * x).sin());
                expect.push(-(tau * x).sin() / (tau * tau));
            }
        }
        let phi = solve_poisson_local(n, &rho);
        assert!(max_abs_diff(&phi, &expect) < 1e-10);
    }

    #[test]
    fn laplacian_of_solution_recovers_density() {
        // Apply the spectral Laplacian to φ and compare with ρ.
        let n = [8usize, 8, 8];
        let rho = test_density(n);
        let phi = solve_poisson_local(n, &rho);
        // ∇² in spectral space: multiply by -(2π|k|)².
        let mut spec: Vec<C64> = phi.iter().map(|&v| C64::real(v)).collect();
        fftkern::nd::fft_3d(&mut spec, n[0], n[1], n[2], Direction::Forward);
        for i0 in 0..n[0] {
            for i1 in 0..n[1] {
                for i2 in 0..n[2] {
                    let k = [
                        wavenumber(i0, n[0]),
                        wavenumber(i1, n[1]),
                        wavenumber(i2, n[2]),
                    ];
                    let k2 = (k[0] * k[0] + k[1] * k[1] + k[2] * k[2])
                        * (2.0 * std::f64::consts::PI).powi(2);
                    let idx = (i0 * n[1] + i1) * n[2] + i2;
                    spec[idx] = spec[idx].scale(-k2);
                }
            }
        }
        fftkern::nd::fft_3d(&mut spec, n[0], n[1], n[2], Direction::Inverse);
        fftkern::nd::normalize(&mut spec, n[0] * n[1] * n[2]);
        let lap: Vec<f64> = spec.iter().map(|z| z.re).collect();
        // Zero-mean projection of rho (the k=0 mode is gauged away).
        let mean: f64 = rho.iter().sum::<f64>() / rho.len() as f64;
        let rho0: Vec<f64> = rho.iter().map(|v| v - mean).collect();
        assert!(max_abs_diff(&lap, &rho0) < 1e-8);
    }

    #[test]
    fn distributed_solve_matches_serial() {
        let n = [8usize, 8, 8];
        let rho = test_density(n);
        let res =
            solve_poisson_distributed(&MachineSpec::testbox(2), 4, n, FftOptions::default(), &rho);
        assert!(
            res.rel_error < 1e-12,
            "distributed poisson error {}",
            res.rel_error
        );
        assert!(res.time.as_ns() > 0);
    }

    #[test]
    fn distributed_spectrum_round_trips_through_half_plane() {
        // The satellite contract for the r2c switch: the density's
        // half-spectrum (as the distributed solver sees it) matches the
        // embedded full complex transform on the non-redundant bins, and
        // c2r(r2c(ρ))/N recovers ρ — i.e. the solver's spectral state is
        // the genuine spectrum, not an artifact of the packed pipeline.
        let n = [8usize, 6, 8];
        let ranks = 4;
        let rho = test_density(n);
        let plan = Real3dPlan::build(n, ranks, FftOptions::default());
        let mh = [n[0], n[1], plan.h];
        let norm = plan.normalization();

        let world = World::new(MachineSpec::testbox(2), ranks, WorldOpts::default());
        let blocks = world.run(|rank| {
            let comm = Comm::world(rank);
            let bound = plan.bind(rank, &comm);
            let mut ctx = ExecCtx::new();
            let mine = scatter_reals(&rho, &plan, rank.rank());
            let spec = plan.execute_forward(&bound, &mut ctx, rank, &comm, &mine);
            let back = plan.execute_inverse(&bound, &mut ctx, rank, &comm, spec.clone());
            let err = back
                .iter()
                .zip(&mine)
                .map(|(got, want)| (got / norm - want).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-9, "c2r(r2c) roundtrip error {err}");
            spec
        });

        let whole_h = distfft::Box3::whole(mh);
        let mut got = vec![C64::ZERO; mh[0] * mh[1] * mh[2]];
        for (r, block) in blocks.iter().enumerate() {
            let b = plan.spectrum_box(r);
            if !b.is_empty() {
                whole_h.deposit(&mut got, &b, block);
            }
        }
        let mut full: Vec<C64> = rho.iter().map(|&v| C64::real(v)).collect();
        fftkern::nd::fft_3d(&mut full, n[0], n[1], n[2], Direction::Forward);
        let mut err: f64 = 0.0;
        for i0 in 0..n[0] {
            for i1 in 0..n[1] {
                for k in 0..plan.h {
                    let want = full[(i0 * n[1] + i1) * n[2] + k];
                    let have = got[(i0 * mh[1] + i1) * mh[2] + k];
                    err = err.max((have - want).abs());
                }
            }
        }
        assert!(err < 1e-8, "half-spectrum error {err}");
    }
}
