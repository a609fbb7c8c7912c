//! Shared support for the per-figure benchmark harnesses.
//!
//! Each binary in `src/bin` regenerates one table or figure of the paper
//! (see DESIGN.md §3 for the index). The helpers here cover the shared
//! experimental protocol — the paper's measurement convention (§IV: "the
//! average runtime of 8 FFTs (4 forward and 4 backward), preceded by 2 FFTs
//! to warm up"), Table III's rank ladder, and plain-text table output.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use distfft::dryrun::{DryRunOpts, DryRunner};
use distfft::plan::{FftOptions, FftPlan};
use distfft::trace::Trace;
use fftkern::Direction;
use simgrid::{MachineSpec, SimTime};

/// The Table III rank ladder: 1…512 Summit nodes at 6 GPUs per node.
pub fn table3_ranks() -> Vec<usize> {
    vec![6, 12, 24, 48, 96, 192, 384, 768, 1536, 3072]
}

/// The paper's headline transform.
pub const N512: [usize; 3] = [512, 512, 512];

/// The paper's application/batched transform.
pub const N64: [usize; 3] = [64, 64, 64];

/// Warm-up transforms before timing (paper protocol).
pub const WARMUPS: usize = 2;
/// Timed forward+backward pairs (paper protocol: 8 FFTs).
pub const PAIRS: usize = 4;

/// Runs the paper protocol and returns the average per-transform time.
pub fn timed_average(
    machine: &MachineSpec,
    n: [usize; 3],
    ranks: usize,
    opts: FftOptions,
    gpu_aware: bool,
) -> SimTime {
    let plan = FftPlan::build(n, ranks, opts);
    let mut runner = DryRunner::new(
        &plan,
        machine,
        DryRunOpts {
            gpu_aware,
            ..DryRunOpts::default()
        },
    );
    runner.timed_average(WARMUPS, PAIRS)
}

/// Runs the paper protocol and additionally returns the average per-transform
/// communication time (max over ranks of summed MPI-call durations).
pub fn timed_average_with_comm(
    machine: &MachineSpec,
    n: [usize; 3],
    ranks: usize,
    opts: FftOptions,
    gpu_aware: bool,
) -> (SimTime, SimTime) {
    let plan = FftPlan::build(n, ranks, opts);
    let mut runner = DryRunner::new(
        &plan,
        machine,
        DryRunOpts {
            gpu_aware,
            ..DryRunOpts::default()
        },
    );
    for i in 0..WARMUPS {
        let dir = if i % 2 == 0 {
            Direction::Forward
        } else {
            Direction::Inverse
        };
        let _ = runner.run(dir);
    }
    let mut total = SimTime::ZERO;
    let mut comm = SimTime::ZERO;
    for _ in 0..PAIRS {
        for dir in [Direction::Forward, Direction::Inverse] {
            let rep = runner.run(dir);
            total += rep.makespan();
            comm += rep.comm_max();
        }
    }
    let k = (2 * PAIRS) as u64;
    (
        SimTime::from_ns(total.as_ns() / k),
        SimTime::from_ns(comm.as_ns() / k),
    )
}

/// Collects per-rank traces of the full 10-transform protocol (2 warm-up +
/// 8 timed), concatenated in execution order per rank — the raw material of
/// the per-call figures (Figs. 2, 3, 10).
pub fn protocol_traces(
    machine: &MachineSpec,
    n: [usize; 3],
    ranks: usize,
    opts: FftOptions,
    gpu_aware: bool,
    noise: f64,
) -> Vec<Trace> {
    let plan = FftPlan::build(n, ranks, opts);
    let mut runner = DryRunner::new(
        &plan,
        machine,
        DryRunOpts {
            gpu_aware,
            noise_amplitude: noise,
            ..DryRunOpts::default()
        },
    );
    let mut merged: Vec<Trace> = vec![Trace::new(); ranks];
    for i in 0..(WARMUPS + 2 * PAIRS) {
        let dir = if i % 2 == 0 {
            Direction::Forward
        } else {
            Direction::Inverse
        };
        let rep = runner.run(dir);
        for (m, t) in merged.iter_mut().zip(rep.traces) {
            m.events.extend(t.events);
        }
    }
    merged
}

/// Per-category runtime breakdown over the full protocol, max across ranks:
/// the MPI routine total plus each kernel label (the Figs. 6/7 stacked bars).
pub fn protocol_breakdown(
    machine: &MachineSpec,
    n: [usize; 3],
    ranks: usize,
    opts: distfft::plan::FftOptions,
    gpu_aware: bool,
    noise: f64,
) -> Vec<(String, SimTime)> {
    let routine = opts.backend.routine();
    let traces = protocol_traces(machine, n, ranks, opts, gpu_aware, noise);
    let mut rows: Vec<(String, SimTime)> = Vec::new();
    let comm = traces
        .iter()
        .map(|t| t.comm_total())
        .fold(SimTime::ZERO, SimTime::max);
    rows.push((routine.to_string(), comm));
    let mut labels: Vec<&'static str> = traces
        .iter()
        .flat_map(|t| t.kernel_breakdown().into_keys())
        .collect();
    labels.sort_unstable();
    labels.dedup();
    for label in labels {
        let v = traces
            .iter()
            .map(|t| {
                t.kernel_breakdown()
                    .get(label)
                    .copied()
                    .unwrap_or(SimTime::ZERO)
            })
            .fold(SimTime::ZERO, SimTime::max);
        rows.push((label.to_string(), v));
    }
    rows
}

/// Prints one breakdown side (Figs. 6/7) and returns its total in seconds.
pub fn print_breakdown_side(title: &str, rows: &[(String, SimTime)]) -> f64 {
    println!("--- {title}");
    let mut t = TextTable::new(&["kernel", "total (s)", "share"]);
    let total: f64 = rows.iter().map(|(_, v)| v.as_secs()).sum();
    for (label, v) in rows {
        t.row(vec![
            label.clone(),
            format!("{:.4}", v.as_secs()),
            format!("{:5.1}%", 100.0 * v.as_secs() / total),
        ]);
    }
    t.row(vec!["TOTAL".into(), format!("{total:.4}"), "100.0%".into()]);
    println!("{}", t.render());
    total
}

/// The harness usage-error contract: one line on stderr, exit status 2,
/// before anything runs.
fn usage_error(cause: &str) -> ! {
    eprintln!("error: {cause}");
    std::process::exit(2);
}

/// For a harness that takes no arguments at all: exits 2 naming the first
/// one, so `fig7 --trace-out f` cannot run the whole figure and write
/// nothing.
pub fn reject_args() {
    if let Some(arg) = std::env::args().nth(1) {
        usage_error(&format!(
            "unexpected argument '{arg}' (this harness takes none)"
        ));
    }
}

/// Observability options of a figure harness, parsed from the command line.
///
/// * `--trace-out <file>` — export the harness's per-rank timeline as
///   Chrome-trace JSON (load in `chrome://tracing` / <https://ui.perfetto.dev>).
/// * `--metrics` — print the span summary and the global metrics snapshot.
/// * `--profile-out <file>` — write the harness's [`fftprof::Profile`]
///   (phase attribution, critical path, contention, model residual) as JSON
///   to `<file>` and collapsed stacks to `<file>.folded`.
///
/// Any flag enables the [`fftobs`] registry for the run. All output goes
/// to **stderr** or the named file — never stdout — so the figure's stdout
/// stays byte-identical whether or not observability is on (the simulation
/// itself never reads a metric back, and the profiler only analyses traces
/// after the fact).
#[derive(Debug, Default)]
pub struct Obs {
    trace_out: Option<std::path::PathBuf>,
    profile_out: Option<std::path::PathBuf>,
    metrics: bool,
}

impl Obs {
    /// Parses the harness command line (`args` without the program name):
    /// `--trace-out <file>` / `--profile-out <file>` / `--metrics`, plus
    /// up to `max_positional` positional arguments in order. An unknown
    /// `--flag`, a flag missing its value or a positional the harness does
    /// not consume is an error — a typo must not silently run the whole
    /// figure and write nothing.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        max_positional: usize,
    ) -> Result<(Obs, Vec<String>), String> {
        let mut obs = Obs::default();
        let mut positional = Vec::new();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let mut file = || {
                args.next()
                    .map(std::path::PathBuf::from)
                    .ok_or_else(|| format!("{a} requires a file argument"))
            };
            match a.as_str() {
                "--trace-out" => obs.trace_out = Some(file()?),
                "--profile-out" => obs.profile_out = Some(file()?),
                "--metrics" => obs.metrics = true,
                flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
                _ if positional.len() == max_positional => {
                    return Err(format!("unexpected argument '{a}'"))
                }
                _ => positional.push(a),
            }
        }
        Ok((obs, positional))
    }

    /// [`parse`](Obs::parse) over `std::env::args`, returning the
    /// positional arguments alongside; a parse error exits 2 with a
    /// one-line message on stderr. Enables metric recording when any
    /// output is requested.
    pub fn from_env(max_positional: usize) -> (Obs, Vec<String>) {
        let (obs, positional) = Obs::parse(std::env::args().skip(1), max_positional)
            .unwrap_or_else(|e| usage_error(&e));
        if obs.active() {
            fftobs::set_enabled(true);
        }
        (obs, positional)
    }

    /// True when any observability output was requested.
    pub fn active(&self) -> bool {
        self.trace_out.is_some() || self.profile_out.is_some() || self.metrics
    }

    /// True when `--profile-out` was requested — the harness then runs
    /// the profiler.
    pub fn profiling(&self) -> bool {
        self.profile_out.is_some()
    }

    /// Writes a profile to the `--profile-out` file (JSON) and its
    /// collapsed stacks next to it (`<file>.folded`). No-op when
    /// profiling was not requested.
    pub fn emit_profile(&self, profile: &fftprof::Profile) {
        let Some(path) = &self.profile_out else {
            return;
        };
        let write = |p: std::path::PathBuf, body: String, what: &str| match std::fs::write(&p, body)
        {
            Ok(()) => eprintln!("{what} written to {}", p.display()),
            Err(e) => {
                eprintln!("error: failed to write {what} to {}: {e}", p.display());
                std::process::exit(1);
            }
        };
        write(path.clone(), profile.to_json(), "profile");
        let mut folded = path.clone().into_os_string();
        folded.push(".folded");
        write(folded.into(), profile.to_collapsed(), "collapsed stacks");
    }

    /// Emits the requested artifacts for the harness's per-rank traces:
    /// Chrome-trace JSON to the `--trace-out` file, span summary plus
    /// metrics snapshot to stderr under `--metrics`.
    pub fn emit(&self, traces: &[Trace]) {
        if let Some(path) = &self.trace_out {
            let json = distfft::trace::export_chrome_trace(traces);
            match std::fs::write(path, json) {
                Ok(()) => eprintln!("trace written to {}", path.display()),
                Err(e) => {
                    eprintln!("error: failed to write trace to {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        if self.metrics {
            eprintln!("--- phase summary (all ranks)");
            eprint!("{}", distfft::trace::phase_summary(traces));
            eprintln!("--- metrics");
            eprint!("{}", fftobs::registry().snapshot().render_text());
        }
    }
}

/// A minimal aligned text table.
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> TextTable {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(c, cell)| format!("{:>width$}", cell, width = widths[c]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Prints the standard experiment banner.
pub fn banner(fig: &str, desc: &str) {
    println!("==============================================================");
    println!("{fig}: {desc}");
    println!("(simulated Summit/Spock; paper protocol: 2 warm-up + 8 timed FFTs)");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfft::plan::FftOptions;

    #[test]
    fn obs_parse_accepts_known_flags_and_rejects_the_rest() {
        let parse = |args: &[&str]| Obs::parse(args.iter().map(|s| s.to_string()), 2);
        // Known flags in any position; positionals come back in order.
        let (obs, positional) = parse(&[
            "1024",
            "--trace-out",
            "t.json",
            "--metrics",
            "spock",
            "--profile-out",
            "p.json",
        ])
        .expect("valid command line");
        assert_eq!(obs.trace_out.as_deref(), Some("t.json".as_ref()));
        assert_eq!(obs.profile_out.as_deref(), Some("p.json".as_ref()));
        assert!(obs.metrics && obs.active() && obs.profiling());
        assert_eq!(positional, ["1024", "spock"]);
        let (obs, positional) = parse(&[]).expect("empty command line");
        assert!(!obs.active() && positional.is_empty());
        // A typo'd flag or a flag without its value is an error, not a no-op.
        assert_eq!(
            parse(&["--profile-ou", "f"]).unwrap_err(),
            "unknown flag '--profile-ou'"
        );
        assert_eq!(
            parse(&["512", "--trace-out"]).unwrap_err(),
            "--trace-out requires a file argument"
        );
        // So is a positional past what the harness consumes — the first
        // such argument is the one named.
        assert_eq!(
            parse(&["512", "spock", "extra", "--bogus"]).unwrap_err(),
            "unexpected argument 'extra'"
        );
    }

    #[test]
    fn text_table_aligns() {
        let mut t = TextTable::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("333"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn protocol_helpers_are_consistent() {
        // Chunking overlaps MPI-call spans, so summed call time can
        // legitimately exceed the makespan; this pins the monolithic
        // protocol only (the default options).
        let m = MachineSpec::summit();
        let avg = timed_average(&m, [32, 32, 32], 12, FftOptions::default(), true);
        let (avg2, comm) =
            timed_average_with_comm(&m, [32, 32, 32], 12, FftOptions::default(), true);
        assert!(avg.as_ns() > 0);
        // The two protocols measure slightly differently (global span vs
        // per-transform makespans) but must be within a few percent.
        let ratio = avg.as_ns() as f64 / avg2.as_ns() as f64;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
        assert!(comm <= avg2);
    }

    #[test]
    fn parallel_sweep_byte_identical_to_serial() {
        // The figure harnesses fan the configuration grid out with
        // `fftmodels::par_map`; the rows they emit must not depend on the
        // worker count. Evaluate the same grid serially and with several
        // threads and require exact `SimTime` equality.
        let m = MachineSpec::summit();
        let grid: Vec<(usize, bool)> = vec![(6, true), (12, false), (24, true), (48, false)];
        let eval = |cfg: &(usize, bool)| {
            timed_average(&m, [32, 32, 32], cfg.0, FftOptions::default(), cfg.1)
        };
        let serial = fftmodels::par::par_map_with(1, &grid, eval);
        for threads in [2, 4] {
            let parallel = fftmodels::par::par_map_with(threads, &grid, eval);
            assert_eq!(
                serial, parallel,
                "{threads}-thread sweep diverged from serial"
            );
        }
    }

    #[test]
    fn traces_cover_all_protocol_calls() {
        // The 40-call count is the Fig. 2 protocol fact for monolithic
        // exchanges (the default options); per-peer chunking multiplies it.
        let m = MachineSpec::summit();
        let traces = protocol_traces(&m, [32, 32, 32], 12, FftOptions::default(), true, 0.0);
        assert_eq!(traces.len(), 12);
        // 10 transforms × 4 reshapes = 40 MPI calls (the Fig. 2 x-axis).
        assert_eq!(traces[0].mpi_call_durations().len(), 40);
    }
}
