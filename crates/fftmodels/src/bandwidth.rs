//! Equations (2)–(5) of the paper: communication-cost and average-bandwidth
//! models for slab and pencil decompositions.
//!
//! All quantities use SI units: seconds, bytes, bytes/second. The constant
//! 16 is the double-complex element size.

/// Bytes per complex element (double-complex).
pub const ELEM_BYTES: f64 = 16.0;

/// Network parameters of the model: the paper plugs in `L = 1 µs` and
/// `B = 23.5 GB/s` for Summit (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Message latency, seconds.
    pub latency_s: f64,
    /// Average link bandwidth, bytes/second.
    pub bandwidth_bps: f64,
}

impl ModelParams {
    /// The paper's Summit parameters: 1 µs latency, 23.5 GB/s.
    pub fn summit() -> ModelParams {
        ModelParams {
            latency_s: 1e-6,
            bandwidth_bps: 23.5e9,
        }
    }
}

/// Equation (2): slab-decomposition communication time for a transform of
/// `n` total elements over `pi` processes.
///
/// `T_slabs = (Π−1)·(L + 16N/(B·Π²))`
///
/// ```
/// use fftmodels::bandwidth::{t_slabs, t_pencils, ModelParams};
/// // The paper's §IV-A prediction: at 32 Summit nodes (192 ranks) slabs
/// // beat pencils for a 512³ transform...
/// let n = 512.0 * 512.0 * 512.0;
/// let p = ModelParams::summit();
/// assert!(t_slabs(n, 192, &p) < t_pencils(n, 12, 16, &p));
/// // ...and at 64 nodes (384 ranks) pencils take over.
/// assert!(t_pencils(n, 16, 24, &p) < t_slabs(n, 384, &p));
/// ```
pub fn t_slabs(n: f64, pi: usize, p: &ModelParams) -> f64 {
    let pi_f = pi as f64;
    (pi_f - 1.0) * (p.latency_s + ELEM_BYTES * n / (p.bandwidth_bps * pi_f * pi_f))
}

/// Equation (3): pencil-decomposition communication time with a `P × Q`
/// grid (`Π = P·Q`).
///
/// `T_pencils = (P−1)(L + 16N/(B·P·Π)) + (Q−1)(L + 16N/(B·Q·Π))`
pub fn t_pencils(n: f64, pgrid: usize, qgrid: usize, p: &ModelParams) -> f64 {
    let pi = (pgrid * qgrid) as f64;
    let pf = pgrid as f64;
    let qf = qgrid as f64;
    (pf - 1.0) * (p.latency_s + ELEM_BYTES * n / (p.bandwidth_bps * pf * pi))
        + (qf - 1.0) * (p.latency_s + ELEM_BYTES * n / (p.bandwidth_bps * qf * pi))
}

/// Equation (4): average per-process bandwidth (bytes/s) inferred from a
/// measured slab communication time.
///
/// `B_slabs = 16N / (Π²·(T/(Π−1) − L))`
pub fn b_slabs(n: f64, pi: usize, t_measured: f64, latency_s: f64) -> f64 {
    let pi_f = pi as f64;
    let per_step = t_measured / (pi_f - 1.0) - latency_s;
    ELEM_BYTES * n / (pi_f * pi_f * per_step)
}

/// Equation (5): average per-process bandwidth inferred from a measured
/// pencil communication time.
///
/// `B_pencils = 16N·((P−1)/P + (Q−1)/Q) / (Π·(T − L·(P+Q−2)))`
pub fn b_pencils(n: f64, pgrid: usize, qgrid: usize, t_measured: f64, latency_s: f64) -> f64 {
    let pi = (pgrid * qgrid) as f64;
    let pf = pgrid as f64;
    let qf = qgrid as f64;
    let num = ELEM_BYTES * n * ((pf - 1.0) / pf + (qf - 1.0) / qf);
    let den = pi * (t_measured - latency_s * (pf + qf - 2.0));
    num / den
}

/// The pipelined-reshape chunk-count model. Its single definition lives in
/// `distfft` (which `FFT_RESHAPE_CHUNKS=auto` evaluates, and which this
/// crate depends on); re-exported here next to the paper's other models.
pub use distfft::schedule::{t_pipelined, t_pipelined_ext};

#[cfg(test)]
mod tests {
    use super::*;

    const N512: f64 = 512.0 * 512.0 * 512.0;

    #[test]
    fn pipelined_k1_is_the_strict_sum() {
        let (p, c, u) = (2e-3, 5e-3, 1.5e-3);
        assert!((t_pipelined(p, c, u, 1) - (p + c + u)).abs() < 1e-15);
    }

    #[test]
    fn pipelined_decreases_toward_the_bottleneck_stage() {
        let (p, c, u) = (2e-3, 5e-3, 1.5e-3);
        let mut prev = t_pipelined(p, c, u, 1);
        for k in 2..=64 {
            let t = t_pipelined(p, c, u, k);
            assert!(t <= prev, "k={k}: {t} > {prev}");
            assert!(t >= c, "k={k}: below the bottleneck stage");
            prev = t;
        }
        // Large k approaches the bottleneck (comm) alone.
        assert!((t_pipelined(p, c, u, 1 << 20) - c) / c < 1e-3);
    }

    #[test]
    fn pipelined_ext_k1_is_the_strict_chain_plus_fft() {
        let (p, c, u, f, l) = (2e-3, 5e-3, 1.5e-3, 3e-3, 1e-4);
        assert!((t_pipelined_ext(p, c, u, f, l, 1) - (p + c + u + f)).abs() < 1e-15);
    }

    #[test]
    fn pipelined_ext_has_an_interior_optimum() {
        // With a meaningful per-chunk latency the cost must fall from k=1
        // (overlap wins) and rise again for huge k (latency dominates) —
        // the interior optimum auto-selection exists to find.
        let (p, c, u, f, l) = (2e-3, 5e-3, 1.5e-3, 3e-3, 4e-4);
        let t1 = t_pipelined_ext(p, c, u, f, l, 1);
        let best = (1..=64)
            .map(|k| t_pipelined_ext(p, c, u, f, l, k))
            .fold(f64::INFINITY, f64::min);
        let t64 = t_pipelined_ext(p, c, u, f, l, 64);
        assert!(best < t1, "chunking should beat the strict chain");
        assert!(t64 > best, "unbounded k should pay for its latency");
    }

    #[test]
    fn pipelined_ext_overlap_never_exceeds_wire_or_fft() {
        let (p, c, u, l) = (2e-3, 5e-3, 1.5e-3, 0.0);
        for k in 1..=32 {
            // Overlap is capped by the transform itself...
            let tiny_fft = 1e-6;
            assert!(t_pipelined_ext(p, c, u, tiny_fft, l, k) >= t_pipelined(p, c, u, k));
            // ...and by the wire time it hides under.
            let huge_fft = 50e-3;
            assert!(
                t_pipelined_ext(p, c, u, huge_fft, l, k) >= t_pipelined(p, c, u, k) + huge_fft - c
            );
        }
    }

    #[test]
    fn eq2_eq4_are_inverses() {
        let p = ModelParams::summit();
        for pi in [6usize, 24, 96, 384] {
            let t = t_slabs(N512, pi, &p);
            let b = b_slabs(N512, pi, t, p.latency_s);
            assert!(
                (b - p.bandwidth_bps).abs() / p.bandwidth_bps < 1e-9,
                "Π={pi}: recovered B = {b}"
            );
        }
    }

    #[test]
    fn eq3_eq5_are_inverses() {
        let p = ModelParams::summit();
        for (pg, qg) in [(2, 3), (4, 6), (8, 12), (24, 32)] {
            let t = t_pencils(N512, pg, qg, &p);
            let b = b_pencils(N512, pg, qg, t, p.latency_s);
            assert!(
                (b - p.bandwidth_bps).abs() / p.bandwidth_bps < 1e-9,
                "({pg},{qg}): recovered B = {b}"
            );
        }
    }

    #[test]
    fn slab_time_has_latency_and_bandwidth_regimes() {
        let p = ModelParams::summit();
        // Tiny transform: latency-dominated, T ≈ (Π−1)·L.
        let t_small = t_slabs(64.0, 100, &p);
        assert!((t_small - 99.0 * p.latency_s).abs() / t_small < 0.01);
        // Huge transform at small Π: bandwidth-dominated.
        let t_big = t_slabs(N512 * 64.0, 2, &p);
        let bw_term = ELEM_BYTES * N512 * 64.0 / (p.bandwidth_bps * 4.0);
        assert!((t_big - bw_term).abs() / t_big < 0.01);
    }

    #[test]
    fn paper_prediction_slabs_beat_pencils_below_64_nodes() {
        // §IV-A: with B = 23.5 GB/s and L = 1 µs, slabs should win below 64
        // Summit nodes (Π = 384) and pencils at 64 nodes and beyond, for a
        // 512³ transform. Check the model reproduces the crossover.
        let p = ModelParams::summit();
        let grids = [
            (6usize, 2usize, 3usize), // 1 node
            (12, 3, 4),
            (24, 4, 6),
            (48, 6, 8),
            (96, 8, 12),
            (192, 12, 16), // 32 nodes
            (384, 16, 24), // 64 nodes
        ];
        for (pi, pg, qg) in grids {
            let slab = t_slabs(N512, pi, &p);
            let pencil = t_pencils(N512, pg, qg, &p);
            let nodes = pi / 6;
            if nodes < 64 {
                assert!(
                    slab < pencil,
                    "at {nodes} nodes slabs ({slab:.2e}) should beat pencils ({pencil:.2e})"
                );
            } else {
                assert!(
                    pencil < slab,
                    "at {nodes} nodes pencils ({pencil:.2e}) should beat slabs ({slab:.2e})"
                );
            }
        }
    }

    #[test]
    fn pencil_time_decreases_then_latency_floors() {
        let p = ModelParams::summit();
        let t24 = t_pencils(N512, 4, 6, &p);
        let t384 = t_pencils(N512, 16, 24, &p);
        assert!(t384 < t24, "strong scaling should reduce comm time");
    }
}
