//! The paper's tables and figures as data, plus the harness plumbing
//! they share.
//!
//! Each table or figure is one function in [`figs`] returning a
//! [`Figure`]: its text, byte for byte what its binary in `src/bin`
//! prints, and the [`Anchor`]s where the paper states a number (see
//! DESIGN.md §3 for the index). The helpers here cover the shared
//! experimental protocol — the paper's measurement convention (§IV: "the
//! average runtime of 8 FFTs (4 forward and 4 backward), preceded by 2 FFTs
//! to warm up"), Table III's rank ladder, and plain-text table output.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod figs;

use distfft::dryrun::{DryRunOpts, DryRunReport, DryRunner};
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

/// The full paper protocol — 2 warm-ups, then 8 timed, alternating forward
/// and inverse from a forward — keeping `each(report)` per transform.
pub fn protocol_runs<T>(
    machine: &MachineSpec,
    n: [usize; 3],
    ranks: usize,
    opts: FftOptions,
    run: DryRunOpts,
    each: impl FnMut(DryRunReport) -> T,
) -> Vec<T> {
    let plan = FftPlan::build(n, ranks, opts);
    let mut runner = DryRunner::new(&plan, machine, run);
    [Direction::Forward, Direction::Inverse]
        .into_iter()
        .cycle()
        .take(WARMUPS + 2 * PAIRS)
        .map(|dir| runner.run(dir))
        .map(each)
        .collect()
}

/// Each rank's trace of the protocol's transforms, concatenated in
/// execution order — the raw material of the per-call figures (Figs. 2, 3,
/// 10).
pub fn merged_traces(runs: Vec<Vec<Trace>>) -> Vec<Trace> {
    let mut merged: Vec<Trace> = Vec::new();
    for traces in runs {
        merged.resize_with(traces.len(), Trace::new);
        for (m, t) in merged.iter_mut().zip(traces) {
            m.events.extend(t.events);
        }
    }
    merged
}

/// Runs the paper protocol and returns the average per-transform time and
/// communication time (max over ranks of summed MPI-call durations) of the
/// 8 timed transforms.
pub fn timed_average_with_comm(
    machine: &MachineSpec,
    n: [usize; 3],
    ranks: usize,
    opts: FftOptions,
    gpu_aware: bool,
) -> (SimTime, SimTime) {
    let run = DryRunOpts {
        gpu_aware,
        ..DryRunOpts::default()
    };
    let runs = protocol_runs(machine, n, ranks, opts, run, |r| {
        [r.makespan(), r.comm_max()]
    });
    let average = |i: usize| {
        let timed = &runs[WARMUPS..];
        SimTime::from_ns(timed.iter().map(|r| r[i]).sum::<SimTime>().as_ns() / timed.len() as u64)
    };
    (average(0), average(1))
}

/// How a value the paper states bounds ours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// "≈ x": ours should be close.
    About,
    /// "> x": ours should exceed it.
    Above,
    /// "< x": ours should stay under it.
    Below,
}

/// A number the paper states, next to ours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anchor {
    /// Stable row id, `<figure>.<quantity>`.
    pub id: &'static str,
    /// What is compared, with its unit.
    pub claim: &'static str,
    /// How the paper's value bounds ours.
    pub bound: Bound,
    /// The paper's value.
    pub paper: f64,
    /// Largest relative [`error`](Anchor::error) inside tolerance.
    pub tol: f64,
    /// This reproduction's value.
    pub ours: f64,
}

impl Anchor {
    /// Relative error against the paper: the distance for [`Bound::About`],
    /// how far ours falls on the wrong side for the other two.
    pub fn error(&self) -> f64 {
        let d = (self.ours - self.paper) / self.paper.abs();
        match self.bound {
            Bound::About => d.abs(),
            Bound::Above => (-d).max(0.0),
            Bound::Below => d.max(0.0),
        }
    }

    /// True when the error is inside the tolerance.
    pub fn holds(&self) -> bool {
        self.error() <= self.tol
    }
}

/// One table or figure: the text its harness prints and the paper anchors
/// it measures.
#[derive(Debug, Default)]
pub struct Figure {
    text: String,
    /// The figure's anchors, in the order it states them.
    pub anchors: Vec<Anchor>,
}

impl Figure {
    /// Starts a figure with the standard experiment banner.
    pub fn new(fig: &str, desc: &str) -> Figure {
        let rule = "=".repeat(62);
        let mut f = Figure::default();
        f.line(&rule);
        f.line(format!("{fig}: {desc}"));
        f.line("(simulated Summit/Spock; paper protocol: 2 warm-up + 8 timed FFTs)");
        f.line(&rule);
        f
    }

    /// Appends one line.
    pub fn line(&mut self, line: impl AsRef<str>) {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
    }

    /// Appends a table and a blank line.
    pub fn table(&mut self, t: &TextTable) {
        self.line(t.render());
    }

    /// Records the anchor `id`: the paper's value for `claim`, how it
    /// bounds `ours`, and the tolerance; returns it for the text to cite.
    pub fn anchor(
        &mut self,
        id: &'static str,
        claim: &'static str,
        bound: Bound,
        paper: f64,
        tol: f64,
        ours: f64,
    ) -> Anchor {
        let a = Anchor {
            id,
            claim,
            bound,
            paper,
            tol,
            ours,
        };
        self.anchors.push(a);
        a
    }

    /// The figure's text, exactly as its harness prints it.
    pub fn render(&self) -> &str {
        &self.text
    }
}

/// The harness usage-error contract: one line on stderr, exit status 2,
/// before anything runs.
fn usage_error(cause: &str) -> ! {
    eprintln!("error: {cause}");
    std::process::exit(2);
}

/// The `main` of a harness that takes no arguments: prints `figure`, or
/// exits 2 naming the first argument, so `fig7 --trace-out f` cannot run
/// the whole figure and write nothing.
pub fn run(figure: fn() -> Figure) {
    if let Some(arg) = std::env::args().nth(1) {
        usage_error(&format!(
            "unexpected argument '{arg}' (this harness takes none)"
        ));
    }
    print!("{}", figure().render());
}

/// The `main` of a harness whose only argument is its [`Export`] flag.
pub fn run_with_obs(export: Export, figure: fn(&Obs) -> Figure) {
    let (obs, _) = Obs::from_env(0, export);
    print!("{}", figure(&obs).render());
}

/// The one export a flag-taking harness writes, named by its flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Export {
    /// `--trace-out <file>`: the per-rank timeline as Chrome-trace JSON
    /// (load in `chrome://tracing` / <https://ui.perfetto.dev>).
    Trace,
    /// `--profile-out <file>`: the harness's [`fftprof::Profile`] (phase
    /// attribution, critical path, contention, model residual) as JSON to
    /// `<file>` and collapsed stacks to `<file>.folded`.
    Profile,
}

impl Export {
    fn flag(self) -> &'static str {
        match self {
            Export::Trace => "--trace-out",
            Export::Profile => "--profile-out",
        }
    }
}

/// Observability options of a figure harness, parsed from the command line:
/// the file its one [`Export`] goes to, if asked for.
///
/// All output goes to **stderr** or the named file — never stdout — so the
/// figure's stdout stays byte-identical whether or not a flag is given (the
/// exporter and the profiler only read traces after the fact).
#[derive(Debug, Default)]
pub struct Obs {
    trace_out: Option<std::path::PathBuf>,
    profile_out: Option<std::path::PathBuf>,
}

impl Obs {
    /// Parses the harness command line (`args` without the program name):
    /// the flag of `export`, `--trace-out <file>` or `--profile-out
    /// <file>`, plus up to `max_positional` positional arguments in order.
    /// An unknown `--flag`, the other export's flag, a flag missing its
    /// value or a positional the harness does not consume is an error — a
    /// typo must not silently run the whole figure and write nothing.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        max_positional: usize,
        export: Export,
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
                flag @ ("--trace-out" | "--profile-out") if flag != export.flag() => {
                    return Err(format!(
                        "this harness does not write '{flag}'; its export is {}",
                        export.flag()
                    ))
                }
                "--trace-out" => obs.trace_out = Some(file()?),
                "--profile-out" => obs.profile_out = Some(file()?),
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
    /// one-line message on stderr.
    pub fn from_env(max_positional: usize, export: Export) -> (Obs, Vec<String>) {
        let args = std::env::args().skip(1);
        Obs::parse(args, max_positional, export).unwrap_or_else(|e| usage_error(&e))
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
        write_or_exit(path.clone(), profile.to_json(), "profile");
        let mut folded = path.clone().into_os_string();
        folded.push(".folded");
        write_or_exit(folded.into(), profile.to_collapsed(), "collapsed stacks");
    }

    /// Writes the harness's per-rank traces as Chrome-trace JSON to the
    /// `--trace-out` file. No-op when no trace was requested.
    pub fn emit(&self, traces: &[Trace]) {
        if let Some(path) = &self.trace_out {
            let json = distfft::trace::export_chrome_trace(traces);
            write_or_exit(path.clone(), json, "trace");
        }
    }
}

/// Writes `body` to `path` and says so on stderr, or exits 1 naming `what`.
fn write_or_exit(path: std::path::PathBuf, body: String, what: &str) {
    match std::fs::write(&path, body) {
        Ok(()) => eprintln!("{what} written to {}", path.display()),
        Err(e) => {
            eprintln!("error: failed to write {what} to {}: {e}", path.display());
            std::process::exit(1);
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

#[cfg(test)]
mod tests {
    use super::*;
    use distfft::plan::FftOptions;

    #[test]
    fn obs_parse_accepts_known_flags_and_rejects_the_rest() {
        let parse =
            |args: &[&str], export| Obs::parse(args.iter().map(|s| s.to_string()), 2, export);
        // The export's flag in any position; positionals come back in order.
        let (obs, positional) = parse(
            &["1024", "--profile-out", "p.json", "spock"],
            Export::Profile,
        )
        .expect("valid command line");
        assert_eq!(obs.profile_out.as_deref(), Some("p.json".as_ref()));
        assert!(obs.profiling() && obs.trace_out.is_none());
        assert_eq!(positional, ["1024", "spock"]);
        let (obs, _) =
            parse(&["--trace-out", "t.json"], Export::Trace).expect("valid command line");
        assert_eq!(obs.trace_out.as_deref(), Some("t.json".as_ref()));
        assert!(!obs.profiling());
        let (obs, positional) = parse(&[], Export::Trace).expect("empty command line");
        assert!(obs.trace_out.is_none() && !obs.profiling() && positional.is_empty());
        // The other export's flag is an error, not a run that writes nothing.
        assert_eq!(
            parse(&["--profile-out", "p.json"], Export::Trace).unwrap_err(),
            "this harness does not write '--profile-out'; its export is --trace-out"
        );
        assert_eq!(
            parse(&["--trace-out", "t.json"], Export::Profile).unwrap_err(),
            "this harness does not write '--trace-out'; its export is --profile-out"
        );
        // So is a typo'd flag or a flag without its value.
        assert_eq!(
            parse(&["--profile-ou", "f"], Export::Profile).unwrap_err(),
            "unknown flag '--profile-ou'"
        );
        assert_eq!(
            parse(&["--metrics"], Export::Trace).unwrap_err(),
            "unknown flag '--metrics'"
        );
        assert_eq!(
            parse(&["512", "--trace-out"], Export::Trace).unwrap_err(),
            "--trace-out requires a file argument"
        );
        // So is a positional past what the harness consumes — the first
        // such argument is the one named.
        assert_eq!(
            parse(&["512", "spock", "extra", "--bogus"], Export::Trace).unwrap_err(),
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
        // The figure harnesses and the tuner fan the configuration grid out
        // with `fftmodels::par_map`; the rows they emit must not depend on
        // the worker count. Evaluate the same grids serially and with
        // several threads and require exact `SimTime` equality: the
        // harness protocol over rank counts, and the tuner's cell for
        // each backend it tries.
        use distfft::plan::CommBackend;
        let m = MachineSpec::summit();
        let grid: Vec<(usize, bool)> = vec![(6, true), (12, false), (24, true), (48, false)];
        let eval = |cfg: &(usize, bool)| {
            timed_average(&m, [32, 32, 32], cfg.0, FftOptions::default(), cfg.1)
        };
        let backends = [
            CommBackend::AllToAll,
            CommBackend::AllToAllV,
            CommBackend::P2p,
            CommBackend::P2pBlocking,
        ];
        let tune_cell = |backend: &CommBackend| {
            let opts = FftOptions {
                backend: *backend,
                ..FftOptions::default()
            };
            fftmodels::tuner::evaluate(&m, [32, 32, 32], 12, opts, true)
        };
        let serial = fftmodels::par::par_map_with(1, &grid, eval);
        let serial_cells = fftmodels::par::par_map_with(1, &backends, tune_cell);
        for threads in [2, 4] {
            let parallel = fftmodels::par::par_map_with(threads, &grid, eval);
            assert_eq!(
                serial, parallel,
                "{threads}-thread sweep diverged from serial"
            );
            let cells = fftmodels::par::par_map_with(threads, &backends, tune_cell);
            assert_eq!(
                serial_cells, cells,
                "{threads}-thread tuner cells diverged from serial"
            );
        }
    }

    #[test]
    fn traces_cover_all_protocol_calls() {
        // The 40-call count is the Fig. 2 protocol fact for monolithic
        // exchanges (the default options); per-peer chunking multiplies it.
        let m = MachineSpec::summit();
        let runs = protocol_runs(
            &m,
            [32, 32, 32],
            12,
            FftOptions::default(),
            Default::default(),
            |r| r.traces,
        );
        let traces = merged_traces(runs);
        assert_eq!(traces.len(), 12);
        // 10 transforms × 4 reshapes = 40 MPI calls (the Fig. 2 x-axis).
        assert_eq!(traces[0].mpi_call_durations().len(), 40);
    }
}
