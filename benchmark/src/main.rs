//! `fftbench` — the repository's benchmark.
//!
//! One invocation measures one workload in one pass:
//!
//! ```text
//! fftbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics with `fftobs` off; `--trace 1`
//! reports the per-layer metrics (a shorter untraced loop, the same loop
//! traced, then every layer probed in isolation). The last line of stdout
//! is the result object; everything else goes to stderr. `--suite` runs
//! every workload in both passes, each in a child process of its own.
//! See `benchmark/README.md`.

mod analytic;
mod functional;
mod layers;
mod metrics;
mod spans;
mod suite;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use functional::{LoopOutcome, Segment, ORACLE_TOL, ROUNDTRIP_TOL, SIM_TO, WARMUP_OPS};
use metrics::Values;
use spans::SpanLog;
use util::{freq_probe_us, json_str, median, nproc, quantile, to_nominal, vm_hwm_mb, within};
use workloads::{generate_input, Kind, Plans, Workload};

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub cold_starts: Option<usize>,
    pub out: Option<PathBuf>,
    /// Probe budgets cut tenfold (the smoke run).
    pub quick: bool,
    pub mode: Mode,
}

#[derive(PartialEq, Eq)]
pub enum Mode {
    Run,
    ColdStart,
    Suite { smoke: bool },
    EmitBenchmarkJson,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        cold_starts: None,
        out: None,
        quick: false,
        mode: Mode::Run,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => a.trace = value("0 or 1")? == "1",
            "--cold-starts" => {
                a.cold_starts = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--cold-starts: {e}"))?,
                )
            }
            "--out" => a.out = Some(PathBuf::from(value("a directory")?)),
            "--quick" => a.quick = true,
            "--cold-start" => a.mode = Mode::ColdStart,
            "--suite" => a.mode = Mode::Suite { smoke: false },
            "--smoke" => a.mode = Mode::Suite { smoke: true },
            "--emit-benchmark-json" => a.mode = Mode::EmitBenchmarkJson,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// One fresh-process cold start: `main` entry to the end of the first
/// verified op, input generation (the harness's own work) excluded.
/// Prints the seconds scaled to the host's nominal clock, then as read.
fn cold_start(w: &Workload, seed: u64, t_main: Instant) -> ExitCode {
    let t_gen = Instant::now();
    let input = generate_input(w, seed);
    let gen_s = t_gen.elapsed().as_secs_f64();
    let ok = match w.kind {
        Kind::DryRun => {
            let Plans::DryRun(plans) = w.build_plans() else {
                unreachable!()
            };
            analytic::one_op(&plans, None).iter().all(|avg| *avg > 0)
        }
        _ => within(functional::first_op(w, &input), ROUNDTRIP_TOL),
    };
    if !ok {
        eprintln!("fftbench: cold start of {} failed verification", w.name);
        return ExitCode::FAILURE;
    }
    let setup_s = t_main.elapsed().as_secs_f64() - gen_s;
    // Scaled to the nominal clock like every end-to-end time (see
    // `SegmentStats::figures`), with the probe read right after the op.
    let probes: Vec<f64> = (0..25).map(|_| freq_probe_us()).collect();
    println!("{} {setup_s}", setup_s * to_nominal(median(&probes)));
    ExitCode::SUCCESS
}

/// `setup_s`: the median of `count` cold starts, each a child process so
/// the plan cache, twiddle tables, pools and page cache state of this
/// process play no part. Returns the scaled median and the median as read.
fn measure_setup(w: &Workload, seed: u64, count: usize) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (mut scaled, mut raw) = (Vec::with_capacity(count), Vec::with_capacity(count));
    for _ in 0..count {
        let out = Command::new(&exe)
            .args([
                "--cold-start",
                "--workload",
                w.name,
                "--seed",
                &seed.to_string(),
            ])
            .output()
            .map_err(|e| format!("spawning a cold start: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "cold start failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let mut fields = text.split_whitespace().map(str::parse::<f64>);
        match (fields.next(), fields.next()) {
            (Some(Ok(s)), Some(Ok(r))) => {
                scaled.push(s);
                raw.push(r);
            }
            _ => return Err(format!("cold start printed {text:?}")),
        }
    }
    Ok((median(&scaled), median(&raw)))
}

/// The untimed warm-up and the first timed segment. The functional loops
/// must reach the end of the simulated-clock window; the analytic loop has
/// none, and its ops are long, so the smoke run (`quick`) takes one of each.
fn warmup_and_timed(w: &Workload, a: &Args, seconds: f64) -> [Segment; 2] {
    let (warmup_ops, timed_ops) = match (w.kind, a.quick) {
        (Kind::DryRun, true) => (1, 1),
        (Kind::DryRun, false) => (WARMUP_OPS, 3),
        _ => (WARMUP_OPS, SIM_TO - WARMUP_OPS),
    };
    [
        Segment {
            seconds: 0.0,
            min_ops: warmup_ops,
            traced: false,
        },
        Segment {
            seconds,
            min_ops: timed_ops,
            traced: false,
        },
    ]
}

/// What either kind of loop hands back to the reporting code.
struct Measured {
    outcome: LoopOutcome,
    attempted: u64,
    failed: u64,
    /// Forward output vs the serial oracle (0 for the analytic workload).
    oracle_err: f64,
}

fn measure(
    w: &Workload,
    plans: &Plans,
    seed: u64,
    segments: &[Segment],
    epoch: Instant,
) -> Measured {
    match plans {
        Plans::DryRun(ps) => {
            let (outcome, attempted, failed) = analytic::run_loop(ps, segments, epoch);
            Measured {
                outcome,
                attempted,
                failed,
                oracle_err: 0.0,
            }
        }
        _ => {
            let input = generate_input(w, seed);
            let outcome = functional::run_loop(w, plans, &input, segments, epoch);
            let (attempted, failed) = functional::count_failures(&outcome);
            Measured {
                oracle_err: functional::oracle_error(w, plans, &input, &outcome),
                outcome,
                attempted,
                failed,
            }
        }
    }
}

fn end_to_end(w: &Workload, a: &Args, epoch: Instant) -> Result<(Values, Measured), String> {
    let cold_starts = a.cold_starts.unwrap_or(w.cold_starts);
    let (setup_s, raw_setup_s) = measure_setup(w, a.seed, cold_starts)?;
    let plans = w.build_plans();
    let segments = warmup_and_timed(w, a, a.seconds);
    let m = measure(w, &plans, a.seed, &segments, epoch);
    let timed = &m.outcome.segments[1];
    let fig = timed.figures();
    let mut vals = Values::default();
    vals.set("op_ms_p50", fig.op_ms_p50);
    vals.set("ops_per_s", fig.ops_per_s);
    vals.set("setup_s", setup_s);
    vals.set("peak_rss_mb", vm_hwm_mb());
    eprintln!(
        "fftbench: {} seed {}: {} timed ops in {:.2} s, {} cold starts; as the clock read: \
         op_ms_p50 {:.4}, ops_per_s {:.4}, setup_s {:.5}, frequency probe {:.2} us (nominal {})",
        w.name,
        a.seed,
        timed.op_ms.len(),
        timed.done_s.last().copied().unwrap_or(0.0),
        cold_starts,
        fig.raw_op_ms_p50,
        fig.raw_ops_per_s,
        raw_setup_s,
        median(&timed.probe_us),
        util::PROBE_NOMINAL_US
    );
    Ok((vals, m))
}

fn per_layer(w: &Workload, a: &Args, epoch: Instant) -> Result<(Values, Measured), String> {
    let mut vals = Values::per_layer();
    let mut log = SpanLog::new(epoch);
    let root = log.begin("setup", None, 0);

    // Cold figures first, while this process's caches still are.
    let t = Instant::now();
    let plans = w.build_plans();
    vals.set("distfft.plan_build_ms", t.elapsed().as_secs_f64() * 1e3);
    let id = log.begin("fftkern.plan_cold", Some(root), 0);
    vals.set("fftkern.plan_cold_us", layers::plan_cold_us(&plans));
    log.end(id);
    log.end(root);

    let share = a.seconds * 0.3;
    let [warmup, untraced] = warmup_and_timed(w, a, share);
    let traced = Segment {
        seconds: share,
        min_ops: if a.quick { 1 } else { 2 },
        traced: true,
    };
    let segments = [warmup, untraced, traced];
    let mut m = measure(w, &plans, a.seed, &segments, epoch);
    log.absorb(&mut m.outcome.spans);

    let cache = fftkern::plan_cache();
    let lookups = cache.hits() + cache.misses();
    if lookups > 0 {
        vals.set(
            "fftkern.plan_cache_hit_rate",
            cache.hits() as f64 / lookups as f64,
        );
    }

    let outcome = &m.outcome;
    let (untraced, traced) = (&outcome.segments[1], &outcome.segments[2]);
    // As the clock read: the layer probes below are not scaled either.
    let op_ms_p50 = median(&untraced.op_ms);
    vals.set("bench.op_ms_p90", quantile(&untraced.op_ms, 0.9));
    vals.set("bench.samples", untraced.op_ms.len() as f64);
    vals.set("host.freq_probe_us", median(&untraced.probe_us));
    // The two segments are seconds apart; scaled to the nominal clock so
    // a turbo-bin change between them does not read as tracing overhead.
    vals.set(
        "fftobs.overhead_pct",
        (traced.figures().op_ms_p50 / untraced.figures().op_ms_p50 - 1.0) * 100.0,
    );
    if w.kind != Kind::DryRun {
        vals.set("distfft.exec_fwd_ms_p50", median(&untraced.fwd_ms));
        vals.set("distfft.exec_inv_ms_p50", median(&untraced.inv_ms));
        vals.set("distfft.exec_gflops", w.flops_per_op() / op_ms_p50 / 1e6);
    }

    let budget = if a.quick { 0.01 } else { 0.1 };
    let root = log.begin("layers", None, 0);
    layers::spanned(&mut log, root, "host", || layers::host(&mut vals, a.quick));
    layers::spanned(&mut log, root, "fftobs.disabled_count", || {
        layers::obs_disabled_cost(&mut vals)
    });
    if w.kind != Kind::DryRun {
        let pool = outcome.ranks.iter().fold((0u64, 0u64, 0u64), |acc, r| {
            (
                acc.0 + r.pool.hits,
                acc.1 + r.pool.misses,
                acc.2 + r.pool.evictions,
            )
        });
        if pool.0 + pool.1 > 0 {
            vals.set(
                "distfft.pool_hit_rate",
                pool.0 as f64 / (pool.0 + pool.1) as f64,
            );
        }
        vals.set("distfft.pool_evictions", pool.2 as f64);
        vals.set("distfft.bind_ms", outcome.ranks[0].bind_ms);

        layers::spanned(&mut log, root, "fftkern.kernels", || {
            layers::kernels(w, &plans, &mut vals, budget)
        });
        layers::spanned(&mut log, root, "distfft.pack_unpack_selfcopy", || {
            layers::reshapes(&plans, &mut vals)
        });
        layers::spanned(&mut log, root, "mpisim.exchanges", || {
            layers::exchanges(w, &plans, budget * 10.0, &mut vals)
        });
        layers::spanned(&mut log, root, "mpisim.world_spawn_fanout", || {
            layers::world_costs(w, &mut vals)
        });
        layers::spanned(&mut log, root, "distfft.exec_dryrun_mismatch", || {
            layers::exec_dryrun_mismatch(&plans, outcome, &mut vals)
        });

        // The op's wire bytes, computed from the plan, against what the
        // executor's own trace counter saw during the traced segment.
        let traced_ops = traced.op_ms.len() as u64;
        let counted = outcome
            .counters
            .counter("distfft.bytes.mpi_sent")
            .unwrap_or(0);
        let computed = vals.get("mpisim.bytes_per_op") as u64 * traced_ops;
        vals.set(
            "bench.bytes_counter_gap_b",
            counted.abs_diff(computed) as f64,
        );

        // The wall-clock budget: isolated kernel, pack, unpack, self-copy
        // and exchange CPU against the CPU the op could have used.
        let explained = vals.get("fftkern.cpu_ms_per_op")
            + vals.get("distfft.pack_cpu_ms_per_op")
            + vals.get("distfft.unpack_cpu_ms_per_op")
            + vals.get("distfft.selfcopy_cpu_ms_per_op")
            + vals.get("mpisim.exchange_cpu_ms_per_op");
        let available = op_ms_p50 * nproc().min(w.ranks) as f64;
        vals.set("bench.budget_explained_pct", explained / available * 100.0);
        vals.set("bench.other_cpu_ms_per_op", available - explained);
    }
    layers::spanned(&mut log, root, "mpisim.walkers", || {
        layers::walkers(w, &plans, &mut vals)
    });
    layers::spanned(&mut log, root, "fftprof.simulated", || {
        layers::simulated(&plans, outcome, &mut vals)
    });
    layers::spanned(&mut log, root, "distfft.dryrun_host_cost", || {
        layers::dryrun_host_cost(w, &plans, &mut vals)
    });
    layers::spanned(&mut log, root, "fftmodels.tune", || {
        layers::models(w, &mut vals)
    });
    log.end(root);

    eprintln!("{}", log.layer_table());
    if let Some(dir) = &a.out {
        let write = |name: String, text: String| {
            std::fs::create_dir_all(dir)
                .and_then(|_| std::fs::write(dir.join(&name), text))
                .map_err(|e| format!("writing {name}: {e}"))
        };
        write(format!("{}.trace.json", w.name), log.chrome_trace_json())?;
        write(format!("{}.layers.txt", w.name), log.layer_table())?;
    }
    Ok((vals, m))
}

fn run(a: &Args, epoch: Instant) -> Result<ExitCode, String> {
    let name = a.workload.as_deref().ok_or("--workload is required")?;
    let w = workloads::find(name).ok_or(format!("unknown workload {name}"))?;
    if a.mode == Mode::ColdStart {
        return Ok(cold_start(w, a.seed, epoch));
    }
    let (vals, m) = if a.trace {
        per_layer(w, a, epoch)?
    } else {
        end_to_end(w, a, epoch)?
    };
    let oracle_ok = within(m.oracle_err, ORACLE_TOL);
    if !oracle_ok {
        eprintln!(
            "fftbench: forward output is {:e} from the serial oracle",
            m.oracle_err
        );
    }
    let correct = m.failed == 0 && oracle_ok && vals.all_finite();
    for (name, unit) in metrics::table(a.trace) {
        eprintln!("{:<40} {:>16.6} {}", name, vals.get(name), unit);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.attempted,
        m.failed,
        vals.to_json()
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    // The tuning variables change what the crates do; the harness pins
    // every such choice explicitly, so none may leak in (run.sh scrubs).
    if let Some((k, _)) = std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("FFT_"))
    {
        eprintln!(
            "fftbench: unset {} first (benchmark/run.sh does)",
            json_str(&k.to_string_lossy())
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fftbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.mode {
        Mode::EmitBenchmarkJson => {
            print!("{}", metrics::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Mode::Suite { smoke } => suite::run(&args, smoke),
        Mode::Run | Mode::ColdStart => run(&args, epoch),
    };
    result.unwrap_or_else(|e| {
        eprintln!("fftbench: {e}");
        ExitCode::FAILURE
    })
}
