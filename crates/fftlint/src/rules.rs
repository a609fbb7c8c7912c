//! The shared rule registry and the one per-file rule.
//!
//! Findings are deny-by-default; the only escape is an inline
//! `// fftlint:allow(<rule-id>): <justification>` comment on the
//! offending line or the line directly above it (interprocedural findings
//! can also be pinned in the committed baseline, see [`crate::baseline`]).
//!
//! | id | contract enforced |
//! |---|---|
//! | `float-reduction-order` | parallel f64 reductions merge in index order |
//!
//! The three call-graph rules (`no-alloc-in-hot-path`, `lock-order`,
//! `panic-reachable-from-exec`) live in [`crate::graph`]; their ids are
//! registered here so every consumer (CLI, baseline) sees one list. Rules
//! that look at one token at a time (wall-clock reads, hash containers,
//! `unsafe`, `unwrap`/`expect` in libraries, environment reads) are
//! rustc/clippy lints configured per package and in `crates/clippy.toml`
//! (DESIGN.md §12).

use crate::lex::{Scanned, Tok};

/// Rule id: parallel float reductions without an index-ordered merge.
pub const FLOAT_REDUCTION_ORDER: &str = "float-reduction-order";
/// Rule id: allocation inside (or transitively below) a `fftlint:hot` fn.
pub const NO_ALLOC_IN_HOT_PATH: &str = "no-alloc-in-hot-path";
/// Rule id: two locks acquirable in an order seen reversed elsewhere.
pub const LOCK_ORDER: &str = "lock-order";
/// Rule id: panic site transitively reachable from executor entry points.
pub const PANIC_REACHABLE_FROM_EXEC: &str = "panic-reachable-from-exec";

/// Every rule id, for `--list-rules`, the baseline parser and fixture tests.
/// The first is the per-file token rule (this module); the other three are
/// the call-graph rules in [`crate::graph`].
pub const ALL_RULES: [&str; 4] = [
    FLOAT_REDUCTION_ORDER,
    NO_ALLOC_IN_HOT_PATH,
    LOCK_ORDER,
    PANIC_REACHABLE_FROM_EXEC,
];

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

fn ident_at(scan: &Scanned, i: usize) -> Option<&str> {
    match &scan.tokens.get(i)?.tok {
        Tok::Ident(s) => Some(s),
        _ => None,
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

/// Runs the per-file rule over one scanned file.
///
/// `float-reduction-order`: a parallel iterator chain that reduces `f64`s
/// without an index-ordered merge. Float addition is not associative, so
/// `par_iter().sum::<f64>()` produces run-to-run different bits depending
/// on which worker finishes first. The blessed primitive
/// (`fftmodels::par::par_map`) merges in input order before any
/// caller-side reduction and is not flagged.
///
/// Detection is statement-scoped: from a parallel entry token to the next
/// `;` at brace depth zero relative to the match.
pub fn lint(scan: &Scanned, ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    if !matches!(ctx.kind, FileKind::Lib | FileKind::Bin) {
        return out;
    }
    let t = &scan.tokens;
    for (i, masked) in scan.test_mask().into_iter().enumerate() {
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
        if reduced_float && !ordered && !scan.allowed(FLOAT_REDUCTION_ORDER, t[i].line) {
            out.push(Finding {
                rule: FLOAT_REDUCTION_ORDER,
                path: ctx.path.to_string(),
                line: t[i].line,
                col: t[i].col,
                msg: "parallel f64 reduction without an index-ordered merge; collect in input \
                      order (par_map) and reduce serially, or sort before reducing"
                    .to_string(),
            });
        }
    }
    out
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

    fn ctx(kind: FileKind) -> FileCtx<'static> {
        FileCtx {
            path: "test.rs",
            kind,
        }
    }

    fn rules_of(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn float_reduction_needs_parallel_and_float() {
        let bad = "fn f() { let x = v.par_iter().map(|a| a * 2.0).sum::<f64>(); }";
        let s = scan(bad);
        assert_eq!(
            rules_of(&lint(&s, &ctx(FileKind::Lib))),
            vec![FLOAT_REDUCTION_ORDER]
        );
        // Integer reduction in parallel: order-independent, no finding.
        let ok_int = "fn f() { let x = v.par_iter().map(|a| a * 2).sum::<u64>(); }";
        assert!(lint(&scan(ok_int), &ctx(FileKind::Lib)).is_empty());
        // Serial float reduction: fine.
        let ok_serial = "fn f() { let x = v.iter().map(|a| a * 2.0).sum::<f64>(); }";
        assert!(lint(&scan(ok_serial), &ctx(FileKind::Lib)).is_empty());
        // Sorted before reducing: fine.
        let ok_sorted =
            "fn f() { let mut x: Vec<f64> = v.par_iter().collect(); x.sort_by(cmp); let s = x.iter().sum::<f64>(); }";
        assert!(lint(&scan(ok_sorted), &ctx(FileKind::Lib)).is_empty());
    }

    #[test]
    fn allow_suppresses_same_line_and_next_line() {
        let same =
            "fn f() { v.par_iter().sum::<f64>(); } // fftlint:allow(float-reduction-order): why";
        assert!(lint(&scan(same), &ctx(FileKind::Lib)).is_empty());
        let above = "// fftlint:allow(float-reduction-order): why\nfn f() { v.par_iter().sum::<f64>(); }\nfn g() { w.par_iter().sum::<f64>(); }";
        let f = lint(&scan(above), &ctx(FileKind::Lib));
        assert_eq!(rules_of(&f), vec![FLOAT_REDUCTION_ORDER]);
        assert_eq!(f[0].line, 3, "only the un-annotated line fires");
    }
}
