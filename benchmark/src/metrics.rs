//! The benchmark's metric tables — the single source `BENCHMARK.json` is
//! generated from (`fftbench --emit-benchmark-json`) — and the value map a
//! run fills in.

use std::collections::BTreeMap;

use crate::util::{json_num, json_str};
use crate::workloads::WORKLOADS;

/// How long one driver run measures, seconds.
pub const RUN_SECONDS: u64 = 10;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the system sees; measured with tracing off. The time
/// bounds are as wide as the contract allows because `pencil-128x8`, which
/// is memory-bound, drifts ±10 % over minutes with the host's memory
/// traffic (benchmark/README.md, "Measured spread").
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
];

/// `(name, unit, better)`. The prefix is the layer: a crate name, `host`
/// for measured machine ceilings, `bench` for harness self-checks. The
/// direction of a descriptive count (`auto_chunks`, `nproc`, …) is nominal.
/// A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("fftkern.axis0_gflops", "GFLOP/s", "higher"),
    ("fftkern.axis1_gflops", "GFLOP/s", "higher"),
    ("fftkern.axis2_gflops", "GFLOP/s", "higher"),
    ("fftkern.cpu_ms_per_op", "ms", "lower"),
    ("fftkern.plan_cold_us", "us", "lower"),
    ("fftkern.plan_cache_hit_rate", "ratio", "higher"),
    ("fftkern.r2c_untangle_gbps", "GB/s", "higher"),
    ("fftkern.probe_pow2_512x16_gflops", "GFLOP/s", "higher"),
    ("fftkern.probe_strided_512x64_gflops", "GFLOP/s", "higher"),
    ("fftkern.probe_mixed_480x16_gflops", "GFLOP/s", "higher"),
    ("fftkern.probe_bluestein_499_gflops", "GFLOP/s", "higher"),
    ("distfft.plan_build_ms", "ms", "lower"),
    ("distfft.bind_ms", "ms", "lower"),
    ("distfft.pack_gbps", "GB/s", "higher"),
    ("distfft.unpack_gbps", "GB/s", "higher"),
    ("distfft.selfcopy_gbps", "GB/s", "higher"),
    ("distfft.pack_cpu_ms_per_op", "ms", "lower"),
    ("distfft.unpack_cpu_ms_per_op", "ms", "lower"),
    ("distfft.selfcopy_cpu_ms_per_op", "ms", "lower"),
    ("distfft.exec_fwd_ms_p50", "ms", "lower"),
    ("distfft.exec_inv_ms_p50", "ms", "lower"),
    ("distfft.exec_gflops", "GFLOP/s", "higher"),
    ("distfft.pool_hit_rate", "ratio", "higher"),
    ("distfft.pool_evictions", "count", "lower"),
    ("distfft.effective_chunks", "count", "higher"),
    ("distfft.dryrun_cold_run_ms", "ms", "lower"),
    ("distfft.dryrun_warm_run_ms", "ms", "lower"),
    ("distfft.dryrun_events_per_s", "1/s", "higher"),
    ("distfft.exec_dryrun_mismatch_ns", "ns", "lower"),
    ("mpisim.exchange_us_per_call", "us", "lower"),
    ("mpisim.exchange_empty_us_per_call", "us", "lower"),
    ("mpisim.exchange_ms_per_op", "ms", "lower"),
    ("mpisim.exchange_cpu_ms_per_op", "ms", "lower"),
    ("mpisim.msgs_per_op", "count", "lower"),
    ("mpisim.bytes_per_op", "B", "lower"),
    ("mpisim.world_spawn_us", "us", "lower"),
    ("mpisim.split_us", "us", "lower"),
    ("mpisim.par_parts_fanout_us", "us", "lower"),
    ("mpisim.walker_us_per_schedule", "us", "lower"),
    ("sim_op_us", "us", "lower"),
    ("fftprof.sim_compute_us", "us", "lower"),
    ("fftprof.sim_pack_us", "us", "lower"),
    ("fftprof.sim_unpack_us", "us", "lower"),
    ("fftprof.sim_selfcopy_us", "us", "lower"),
    ("fftprof.sim_send_us", "us", "lower"),
    ("fftprof.sim_recv_wait_us", "us", "lower"),
    ("fftprof.sim_idle_us", "us", "lower"),
    ("fftprof.sim_overlap_us", "us", "higher"),
    ("simgrid.ideal_wire_us", "us", "lower"),
    ("simgrid.queue_us", "us", "lower"),
    ("fftprof.model_residual_pct", "%", "lower"),
    ("fftprof.profile_ms", "ms", "lower"),
    ("fftmodels.tune_ms", "ms", "lower"),
    ("fftmodels.auto_chunks", "count", "higher"),
    ("fftobs.overhead_pct", "%", "lower"),
    ("fftobs.spans_per_op", "count", "lower"),
    ("fftobs.disabled_count_ns", "ns", "lower"),
    ("host.memcpy_large_gbps", "GB/s", "higher"),
    ("host.memcpy_l2_gbps", "GB/s", "higher"),
    ("host.memcpy_large_buf_mib", "MiB", "higher"),
    ("host.llc_mib", "MiB", "higher"),
    ("host.nproc", "count", "higher"),
    ("host.freq_probe_us", "us", "lower"),
    ("bench.op_ms_p90", "ms", "lower"),
    ("bench.samples", "count", "higher"),
    ("bench.budget_explained_pct", "%", "higher"),
    ("bench.other_cpu_ms_per_op", "ms", "lower"),
    ("bench.loadavg_1m", "load", "lower"),
    ("bench.sim_tile_gap_ns", "ns", "lower"),
    ("bench.bytes_counter_gap_b", "B", "lower"),
];

/// `(name, unit)` of the metrics one pass reports.
pub fn table(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// The simulated-time phases, in `fftprof::PHASES` order.
pub const SIM_PHASES: [&str; 7] = [
    "fftprof.sim_compute_us",
    "fftprof.sim_pack_us",
    "fftprof.sim_unpack_us",
    "fftprof.sim_selfcopy_us",
    "fftprof.sim_send_us",
    "fftprof.sim_recv_wait_us",
    "fftprof.sim_idle_us",
];

/// Metric values of one run, keyed by name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Every per-layer metric, reading 0 until a probe fills it in.
    pub fn per_layer() -> Values {
        Values(PER_LAYER.iter().map(|m| (m.0, 0.0)).collect())
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let known =
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.0 == name);
        assert!(known, "metric {name} is not in the benchmark's tables");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn all_finite(&self) -> bool {
        self.0.values().all(|v| v.is_finite())
    }

    fn unit(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.unit)
            .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
            .unwrap_or("")
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`; a non-finite value is
    /// written as 0 (the caller reports the run as incorrect).
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(name, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(if v.is_finite() { *v } else { 0.0 }),
                    json_str(Self::unit(name))
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// The exact contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                json_num(m.bound)
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.0),
                json_str(m.1),
                json_str(m.2)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}
