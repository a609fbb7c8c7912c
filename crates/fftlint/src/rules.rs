//! The per-file determinism rules and the shared rule registry.
//!
//! Each per-file rule walks the token stream from [`crate::lex::scan`] and
//! emits [`Finding`]s. All rules are deny-by-default; the only escape is an
//! inline `// fftlint:allow(<rule-id>): <justification>` comment on the
//! offending line or the line directly above it (interprocedural findings
//! can also be pinned in the committed baseline, see [`crate::baseline`]).
//!
//! | id | contract enforced |
//! |---|---|
//! | `no-wallclock` | simulated-time crates never read the host clock |
//! | `no-unordered-iter` | no `HashMap`/`HashSet` in runtime code paths |
//! | `no-unsafe` | the workspace stays `unsafe`-free |
//! | `no-panic-in-lib` | `unwrap`/`expect` only in tests, bins, benches |
//! | `float-reduction-order` | parallel f64 reductions merge in index order |
//!
//! The four interprocedural rules (`no-alloc-in-hot-path`,
//! `env-read-outside-fftobs`, `lock-order`, `panic-reachable-from-exec`)
//! live in [`crate::graph`]; their ids are registered here so every
//! consumer (CLI, baseline) sees one list.

use crate::lex::{Scanned, Tok};

/// Rule id: wall-clock reads in simulated-time crates.
pub const NO_WALLCLOCK: &str = "no-wallclock";
/// Rule id: unordered-container usage in runtime code.
pub const NO_UNORDERED_ITER: &str = "no-unordered-iter";
/// Rule id: `unsafe` anywhere in the workspace.
pub const NO_UNSAFE: &str = "no-unsafe";
/// Rule id: `unwrap`/`expect` in library (non-test, non-bin) code.
pub const NO_PANIC_IN_LIB: &str = "no-panic-in-lib";
/// Rule id: parallel float reductions without an index-ordered merge.
pub const FLOAT_REDUCTION_ORDER: &str = "float-reduction-order";
/// Rule id: allocation inside (or transitively below) a `fftlint:hot` fn.
pub const NO_ALLOC_IN_HOT_PATH: &str = "no-alloc-in-hot-path";
/// Rule id: `std::env::var`/`var_os` anywhere but `fftobs::env`.
pub const ENV_READ_OUTSIDE_FFTOBS: &str = "env-read-outside-fftobs";
/// Rule id: two locks acquirable in an order seen reversed elsewhere.
pub const LOCK_ORDER: &str = "lock-order";
/// Rule id: panic site transitively reachable from executor entry points.
pub const PANIC_REACHABLE_FROM_EXEC: &str = "panic-reachable-from-exec";

/// Every rule id, for `--list-rules`, the baseline parser and fixture tests.
/// The first five are per-file token rules (this module); the last four
/// are the interprocedural call-graph rules in [`crate::graph`].
pub const ALL_RULES: [&str; 9] = [
    NO_WALLCLOCK,
    NO_UNORDERED_ITER,
    NO_UNSAFE,
    NO_PANIC_IN_LIB,
    FLOAT_REDUCTION_ORDER,
    NO_ALLOC_IN_HOT_PATH,
    ENV_READ_OUTSIDE_FFTOBS,
    LOCK_ORDER,
    PANIC_REACHABLE_FROM_EXEC,
];

/// Crates whose timelines are simulated: a host-clock read there can leak
/// wall time into simulated results, the exact failure class the replay
/// equality tests catch at runtime. (`crates/bench` is excluded — its
/// harnesses legitimately measure host wall-clock for throughput numbers.)
pub const SIM_CRATES: [&str; 5] = ["mpisim", "simgrid", "distfft", "fftmodels", "fftprof"];

/// Module allowlist for `no-wallclock`: files whose *purpose* is wall-clock
/// measurement may read the host clock (none exist today; the mechanism is
/// the point — adding one is a reviewed, named decision, not an accident).
pub const WALLCLOCK_MODULES: [&str; 1] = ["wallclock.rs"];

/// How a file participates in the build — decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source (`src/` excluding `src/bin/`).
    Lib,
    /// Binary source (`src/bin/`, `src/main.rs`).
    Bin,
    /// Integration test (`tests/`).
    Test,
    /// Benchmark (`benches/`).
    Bench,
}

/// Per-file lint context.
pub struct FileCtx<'a> {
    /// Display path (used in findings).
    pub path: &'a str,
    /// Crate directory name (`mpisim`, `bench`, … — `""` for the root).
    pub crate_name: &'a str,
    /// File role.
    pub kind: FileKind,
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// File path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.path, self.line, self.col, self.rule, self.msg
        )
    }
}

/// Runs every applicable rule over one scanned file.
pub fn lint(scan: &Scanned, ctx: &FileCtx) -> Vec<Finding> {
    let mask = scan.test_mask();
    let mut out = Vec::new();
    no_wallclock(scan, ctx, &mut out);
    no_unordered_iter(scan, ctx, &mask, &mut out);
    no_unsafe(scan, ctx, &mut out);
    no_panic_in_lib(scan, ctx, &mask, &mut out);
    float_reduction_order(scan, ctx, &mask, &mut out);
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

fn ident_at(scan: &Scanned, i: usize) -> Option<&str> {
    match &scan.tokens.get(i)?.tok {
        Tok::Ident(s) => Some(s),
        _ => None,
    }
}

fn punct_at(scan: &Scanned, i: usize, c: char) -> bool {
    matches!(scan.tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

fn push(
    out: &mut Vec<Finding>,
    scan: &Scanned,
    ctx: &FileCtx,
    rule: &'static str,
    i: usize,
    msg: String,
) {
    let t = &scan.tokens[i];
    if scan.allowed(rule, t.line) {
        return;
    }
    out.push(Finding {
        rule,
        path: ctx.path.to_string(),
        line: t.line,
        col: t.col,
        msg,
    });
}

/// `no-wallclock`: `Instant::now` / `SystemTime` in simulated-time crates.
/// Applies to every file of those crates — tests included, since test
/// assertions over simulated results must not depend on the host clock
/// either — except the named wall-clock module allowlist.
fn no_wallclock(scan: &Scanned, ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !SIM_CRATES.contains(&ctx.crate_name) {
        return;
    }
    if WALLCLOCK_MODULES.iter().any(|m| ctx.path.ends_with(m)) {
        return;
    }
    for i in 0..scan.tokens.len() {
        match ident_at(scan, i) {
            Some("SystemTime") => push(
                out,
                scan,
                ctx,
                NO_WALLCLOCK,
                i,
                "SystemTime read in a simulated-time crate; all timing must come from \
                 simgrid::SimClock"
                    .to_string(),
            ),
            Some("Instant")
                if punct_at(scan, i + 1, ':')
                    && punct_at(scan, i + 2, ':')
                    && ident_at(scan, i + 3) == Some("now") =>
            {
                push(
                    out,
                    scan,
                    ctx,
                    NO_WALLCLOCK,
                    i,
                    "Instant::now() in a simulated-time crate; wall-clock durations must \
                     never feed simulated results"
                        .to_string(),
                )
            }
            _ => {}
        }
    }
}

/// `no-unordered-iter`: `HashMap`/`HashSet` in runtime code (Lib + Bin).
/// Iteration order of the std hash containers varies run to run whenever
/// the key set's insertion history differs, and a single leaked iteration
/// silently perturbs schedules, traces, or figure text. Deny-by-default:
/// even lookup-only maps must either switch to `BTreeMap`/`BTreeSet` or
/// carry an allow with a written justification that they are never
/// iterated.
fn no_unordered_iter(scan: &Scanned, ctx: &FileCtx, mask: &[bool], out: &mut Vec<Finding>) {
    if !matches!(ctx.kind, FileKind::Lib | FileKind::Bin) {
        return;
    }
    for (i, masked) in mask.iter().copied().enumerate() {
        if masked {
            continue;
        }
        if let Some(id @ ("HashMap" | "HashSet")) = ident_at(scan, i) {
            push(
                out,
                scan,
                ctx,
                NO_UNORDERED_ITER,
                i,
                format!(
                    "{id} has nondeterministic iteration order; use BTreeMap/BTreeSet or a \
                     sorted snapshot, or justify with fftlint:allow that it is never iterated"
                ),
            );
        }
    }
}

/// `no-unsafe`: the workspace is unsafe-free (also locked in per-crate by
/// `#![forbid(unsafe_code)]` / `#![deny(unsafe_code)]`; the lint catches
/// the attribute being dropped together with an `unsafe` introduction)
/// with one sanctioned perimeter: the SIMD kernels in
/// `fftkern/src/simd.rs`, where every site carries an individually
/// justified `fftlint:allow(no-unsafe)`. There is no path-based carve-out
/// — unannotated `unsafe` fires there like anywhere else.
fn no_unsafe(scan: &Scanned, ctx: &FileCtx, out: &mut Vec<Finding>) {
    for i in 0..scan.tokens.len() {
        if ident_at(scan, i) == Some("unsafe") {
            push(
                out,
                scan,
                ctx,
                NO_UNSAFE,
                i,
                "unsafe code is forbidden across the workspace".to_string(),
            );
        }
    }
}

/// `no-panic-in-lib`: `.unwrap()` / `.expect(` in library code outside
/// `#[cfg(test)]` modules. Panics in bins/tests/benches are fine (they are
/// the process boundary); a panic in a library path is an availability bug
/// in anything embedding it, so each one needs a written invariant
/// justification.
fn no_panic_in_lib(scan: &Scanned, ctx: &FileCtx, mask: &[bool], out: &mut Vec<Finding>) {
    if ctx.kind != FileKind::Lib {
        return;
    }
    for (i, masked) in mask.iter().copied().enumerate() {
        if masked || !punct_at(scan, i, '.') {
            continue;
        }
        if let Some(id @ ("unwrap" | "expect")) = ident_at(scan, i + 1) {
            if punct_at(scan, i + 2, '(') {
                push(
                    out,
                    scan,
                    ctx,
                    NO_PANIC_IN_LIB,
                    i + 1,
                    format!(
                        ".{id}() in library code; return a Result, handle the None, or \
                         justify the invariant with fftlint:allow"
                    ),
                );
            }
        }
    }
}

/// Rayon-style parallel-iteration entry points. The repo deliberately has
/// no rayon dependency, so any of these appearing means either a vendored
/// stand-in grew one or someone hand-rolled an unordered fan-out.
const PAR_TOKENS: [&str; 6] = [
    "par_iter",
    "into_par_iter",
    "par_iter_mut",
    "par_chunks",
    "par_chunks_mut",
    "par_bridge",
];
/// Reduction combinators whose result depends on evaluation order for
/// non-associative element types (f64 addition/multiplication).
const REDUCE_TOKENS: [&str; 4] = ["sum", "product", "reduce", "fold"];
/// Markers that restore a deterministic merge order before reducing.
const ORDER_TOKENS: [&str; 6] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// `float-reduction-order`: a parallel iterator chain that reduces `f64`s
/// without an index-ordered merge. Float addition is not associative, so
/// `par_iter().sum::<f64>()` produces run-to-run different bits depending
/// on which worker finishes first. The blessed primitive
/// (`fftmodels::par::par_map`) merges in input order before any
/// caller-side reduction and is not flagged.
///
/// Detection is statement-scoped: from a parallel entry token to the next
/// `;` at brace depth zero relative to the match.
fn float_reduction_order(scan: &Scanned, ctx: &FileCtx, mask: &[bool], out: &mut Vec<Finding>) {
    if !matches!(ctx.kind, FileKind::Lib | FileKind::Bin) {
        return;
    }
    let t = &scan.tokens;
    for (i, masked) in mask.iter().copied().enumerate() {
        if masked {
            continue;
        }
        let Some(id) = ident_at(scan, i) else {
            continue;
        };
        if !PAR_TOKENS.contains(&id) {
            continue;
        }
        // Statement window: scan to the terminating `;` (depth-matched).
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut reduced_float = false;
        let mut ordered = false;
        while j < t.len() {
            match &t[j].tok {
                Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') => {
                    depth -= 1;
                    // Closing the enclosing block ends the expression
                    // (tail-expression statements have no `;`).
                    if depth < 0 {
                        break;
                    }
                }
                Tok::Punct(';') if depth <= 0 => break,
                Tok::Ident(s)
                    if REDUCE_TOKENS.contains(&s.as_str()) && window_mentions_float(scan, i, j) =>
                {
                    reduced_float = true;
                }
                Tok::Ident(s) if ORDER_TOKENS.contains(&s.as_str()) => ordered = true,
                _ => {}
            }
            j += 1;
        }
        if reduced_float && !ordered {
            push(
                out,
                scan,
                ctx,
                FLOAT_REDUCTION_ORDER,
                i,
                "parallel f64 reduction without an index-ordered merge; collect in input \
                 order (par_map) and reduce serially, or sort before reducing"
                    .to_string(),
            );
        }
    }
}

/// True when tokens `[from, to+4]` mention an f64/f32 type or float
/// literal — the reduction's element type marker.
fn window_mentions_float(scan: &Scanned, from: usize, to: usize) -> bool {
    let hi = (to + 5).min(scan.tokens.len());
    scan.tokens[from..hi].iter().any(|tok| match &tok.tok {
        Tok::Ident(s) => s == "f64" || s == "f32",
        Tok::Lit(l) => {
            !l.is_empty()
                && l.starts_with(|c: char| c.is_ascii_digit())
                && (l.contains('.') || l.ends_with("f64") || l.ends_with("f32"))
        }
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::scan;

    fn ctx<'a>(kind: FileKind, crate_name: &'a str) -> FileCtx<'a> {
        FileCtx {
            path: "test.rs",
            crate_name,
            kind,
        }
    }

    fn rules_of(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn wallclock_fires_only_in_sim_crates() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); }";
        let s = scan(src);
        let f = lint(&s, &ctx(FileKind::Lib, "mpisim"));
        assert_eq!(rules_of(&f), vec![NO_WALLCLOCK, NO_WALLCLOCK]);
        assert!(lint(&s, &ctx(FileKind::Lib, "bench")).is_empty());
    }

    #[test]
    fn unordered_iter_skips_tests_and_test_mods() {
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod tests { fn t() { let m: HashMap<u8, u8> = HashMap::new(); } }\n";
        let s = scan(src);
        let f = lint(&s, &ctx(FileKind::Lib, "distfft"));
        assert_eq!(rules_of(&f), vec![NO_UNORDERED_ITER]); // the use line only
        assert_eq!(f[0].line, 1);
        assert!(lint(&s, &ctx(FileKind::Test, "distfft")).is_empty());
    }

    #[test]
    fn panic_in_lib_spares_bins_and_expect_variants() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); z.unwrap_or_else(|| 0); w.unwrap_or(1); }";
        let s = scan(src);
        let f = lint(&s, &ctx(FileKind::Lib, "fftkern"));
        assert_eq!(rules_of(&f), vec![NO_PANIC_IN_LIB, NO_PANIC_IN_LIB]);
        assert!(lint(&s, &ctx(FileKind::Bin, "fftkern")).is_empty());
    }

    #[test]
    fn float_reduction_needs_parallel_and_float() {
        let bad = "fn f() { let x = v.par_iter().map(|a| a * 2.0).sum::<f64>(); }";
        let s = scan(bad);
        assert_eq!(
            rules_of(&lint(&s, &ctx(FileKind::Lib, "fftmodels"))),
            vec![FLOAT_REDUCTION_ORDER]
        );
        // Integer reduction in parallel: order-independent, no finding.
        let ok_int = "fn f() { let x = v.par_iter().map(|a| a * 2).sum::<u64>(); }";
        assert!(lint(&scan(ok_int), &ctx(FileKind::Lib, "fftmodels")).is_empty());
        // Serial float reduction: fine.
        let ok_serial = "fn f() { let x = v.iter().map(|a| a * 2.0).sum::<f64>(); }";
        assert!(lint(&scan(ok_serial), &ctx(FileKind::Lib, "fftmodels")).is_empty());
        // Sorted before reducing: fine.
        let ok_sorted =
            "fn f() { let mut x: Vec<f64> = v.par_iter().collect(); x.sort_by(cmp); let s = x.iter().sum::<f64>(); }";
        assert!(lint(&scan(ok_sorted), &ctx(FileKind::Lib, "fftmodels")).is_empty());
    }

    #[test]
    fn allow_suppresses_same_line_and_next_line() {
        let same =
            "fn f() { let m = HashMap::new(); } // fftlint:allow(no-unordered-iter): lookup only";
        assert!(lint(&scan(same), &ctx(FileKind::Lib, "mpisim")).is_empty());
        let above =
            "// fftlint:allow(no-panic-in-lib): invariant\nfn f() { x.unwrap(); }\nfn g() { y.unwrap(); }";
        let f = lint(&scan(above), &ctx(FileKind::Lib, "mpisim"));
        assert_eq!(rules_of(&f), vec![NO_PANIC_IN_LIB]);
        assert_eq!(f[0].line, 3, "only the un-annotated line fires");
    }

    #[test]
    fn unsafe_fires_everywhere() {
        let src = "fn f() { unsafe { std::hint::unreachable_unchecked() } }";
        for kind in [
            FileKind::Lib,
            FileKind::Bin,
            FileKind::Test,
            FileKind::Bench,
        ] {
            let f = lint(&scan(src), &ctx(kind, "bench"));
            assert!(rules_of(&f).contains(&NO_UNSAFE), "{kind:?}");
        }
    }
}
