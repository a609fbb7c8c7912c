//! `fftlint` — executor panic-reachability linter.
//!
//! A static analyzer with no third-party dependency (hand-written lexer, no
//! syn/proc-macro; JSON through the equally dependency-free `fftobs::json`)
//! for the one property of the project's contract that only a call graph
//! can see: which `.unwrap()`/`.expect()` and index sites the executor can
//! reach. Analysis runs in two passes: [`lex`] + [`tree`] parse each file
//! into an item tree, then [`graph`] builds a workspace-wide call graph and
//! runs the rule. Findings are deny-by-default; the escape hatches are an
//! inline `// fftlint:allow(<rule-id>): <justification>` comment and, for
//! the reviewed pre-existing stock, the committed [`baseline`].
//!
//! Checks that need one token at a time — wall-clock and environment
//! reads, hash containers, `unsafe`, `unwrap`/`expect` in libraries — are
//! rustc/clippy lints instead: each package's `[lints]` table, the lib
//! crate roots and `crates/clippy.toml`. Properties that running the code
//! decides exactly are tier-1 tests: the executor's steady-state
//! allocations (`distfft/tests/allocations.rs`), lock nesting (there is
//! none) and index-ordered parallel reductions (DESIGN.md §12).

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod baseline;
pub mod graph;
pub mod lex;
pub mod rules;
pub mod tree;

pub use graph::Analysis;
pub use rules::{FileKind, Finding, ALL_RULES};

use std::path::{Path, PathBuf};

/// Directory prefixes excluded from `--workspace` walks: vendored stand-in
/// crates (not project code) and fftlint's own violation fixtures.
const EXCLUDED_PREFIXES: [&str; 2] = ["vendor/", "crates/fftlint/tests/fixtures/"];

/// Classifies a workspace-relative path (forward slashes) into the crate it
/// belongs to and its build role.
pub fn classify(rel: &str) -> (String, FileKind) {
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
        .to_string();
    let kind = if rel.contains("/tests/") || rel.starts_with("tests/") {
        FileKind::Test
    } else if rel.contains("/benches/") || rel.starts_with("benches/") {
        FileKind::Bench
    } else if rel.contains("/src/bin/") || rel.ends_with("src/main.rs") {
        FileKind::Bin
    } else {
        FileKind::Lib
    };
    (crate_name, kind)
}

/// Runs the two-pass analysis (item trees, then the call-graph rule) over
/// `(relative_path, source)` inputs.
pub fn analyze(inputs: &[(String, String)]) -> Vec<Finding> {
    Analysis::build(inputs).findings()
}

/// Lints one source string as the given workspace-relative path. The call
/// graph covers just this file, so the rule sees only intra-file edges.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    analyze(&[(rel.to_string(), src.to_string())])
}

/// Workspace-relative display path for `file` under `root` (forward
/// slashes; files outside `root` keep their full path).
pub fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Reads every file and runs the full workspace analysis. IO errors name
/// the offending file.
pub fn analyze_files(root: &Path, files: &[PathBuf]) -> std::io::Result<Vec<Finding>> {
    let mut inputs = Vec::with_capacity(files.len());
    for file in files {
        let src = std::fs::read_to_string(file)
            .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", file.display())))?;
        inputs.push((rel_path(root, file), src));
    }
    Ok(analyze(&inputs))
}

/// Collects every lintable `.rs` file under `root`, sorted for
/// deterministic output, honoring [`EXCLUDED_PREFIXES`].
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for top in ["src", "tests", "benches", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut out)?;
        }
    }
    out.retain(|p| {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/");
        !EXCLUDED_PREFIXES.iter().any(|x| rel.starts_with(x))
    });
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_covers_the_workspace_shapes() {
        assert_eq!(
            classify("crates/mpisim/src/comm.rs"),
            ("mpisim".into(), FileKind::Lib)
        );
        assert_eq!(
            classify("crates/bench/src/bin/fig2.rs"),
            ("bench".into(), FileKind::Bin)
        );
        assert_eq!(
            classify("crates/mpisim/tests/sanitize.rs"),
            ("mpisim".into(), FileKind::Test)
        );
        assert_eq!(
            classify("crates/bench/benches/sweep.rs"),
            ("bench".into(), FileKind::Bench)
        );
        assert_eq!(classify("src/lib.rs"), (String::new(), FileKind::Lib));
        assert_eq!(
            classify("tests/parallel_exec.rs"),
            (String::new(), FileKind::Test)
        );
        assert_eq!(
            classify("crates/fftlint/src/main.rs"),
            ("fftlint".into(), FileKind::Bin)
        );
    }

    #[test]
    fn lint_source_end_to_end() {
        let f = lint_source(
            "crates/distfft/src/exec.rs",
            "pub fn execute(p: &P) { step(p); }\nfn step(p: &P) { p.x.unwrap(); }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, rules::PANIC_REACHABLE_FROM_EXEC);
        assert_eq!(f[0].path, "crates/distfft/src/exec.rs");
        assert_eq!((f[0].line, f[0].col), (2, 22));
        // Every fn of the entry file is a root, `step` included.
        assert!(f[0].msg.contains("`step` is an executor entry point"));
    }

    #[test]
    fn workspace_walk_includes_fftlint_itself() {
        // fftlint self-lints: its own sources must be in the walk, while
        // vendored stand-ins and violation fixtures must not.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = workspace_files(&root).expect("workspace walk");
        let rels: Vec<String> = files.iter().map(|p| rel_path(&root, p)).collect();
        for own in [
            "crates/fftlint/src/lib.rs",
            "crates/fftlint/src/graph.rs",
            "crates/fftlint/src/main.rs",
        ] {
            assert!(rels.iter().any(|r| r == own), "{own} missing from walk");
        }
        assert!(rels.iter().all(|r| !r.starts_with("vendor/")));
        assert!(rels
            .iter()
            .all(|r| !r.starts_with("crates/fftlint/tests/fixtures/")));
    }
}
