//! The rule registry and the finding type.
//!
//! Findings are deny-by-default; the only escape is an inline
//! `// fftlint:allow(<rule-id>): <justification>` comment on the
//! offending line or the line directly above it. Reviewed pre-existing
//! findings are pinned in the committed baseline (see
//! [`crate::baseline`]).
//!
//! The one rule, `panic-reachable-from-exec`, lives in [`crate::graph`]:
//! it needs the workspace call graph. What the compiler sees one token at
//! a time (wall-clock reads, hash containers, `unsafe`, `unwrap`/`expect`
//! in libraries, environment reads) is a rustc/clippy lint configured per
//! package and in `crates/clippy.toml`; what running the code shows
//! exactly (steady-state allocations, lock nesting, reduction order) is a
//! tier-1 test (DESIGN.md §12).

/// Rule id: panic site transitively reachable from executor entry points.
pub const PANIC_REACHABLE_FROM_EXEC: &str = "panic-reachable-from-exec";

/// Every rule id, for `--list-rules`, the baseline parser and fixture tests.
pub const ALL_RULES: [&str; 1] = [PANIC_REACHABLE_FROM_EXEC];

/// How a file participates in the build: only `Lib` files join the call
/// graph.
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

#[cfg(test)]
mod tests {
    #[test]
    fn allow_suppresses_same_line_and_next_line() {
        let lint = |src: &str| -> Vec<u32> {
            crate::lint_source("crates/distfft/src/exec.rs", src)
                .iter()
                .map(|f| f.line)
                .collect()
        };
        let same = "pub fn execute(x: Option<u8>) { x.unwrap(); } // fftlint:allow(panic-reachable-from-exec): why";
        assert!(lint(same).is_empty());
        let above = "pub fn execute(x: Option<u8>, y: Option<u8>) {\n    // fftlint:allow(panic-reachable-from-exec): why\n    x.unwrap();\n\n    y.unwrap();\n}";
        assert_eq!(lint(above), vec![5], "only the un-annotated line fires");
        let other_rule =
            "pub fn execute(x: Option<u8>) { x.unwrap(); } // fftlint:allow(other-rule): why";
        assert_eq!(
            lint(other_rule),
            vec![1],
            "an allow names the rule it silences"
        );
    }
}
