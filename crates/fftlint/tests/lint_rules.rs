//! Fixture tests: the rule fires on seeded violations with an exact rule
//! id and file:line:col span, and `fftlint:allow` silences it.
//!
//! Fixtures live under `tests/fixtures/` (excluded from `--workspace`
//! walks) and are linted *as if* they sat in library crates, so the rule is
//! in scope.

use fftlint::{lint_source, rules};

/// Reads a fixture and lints it under a pretend path inside `mpisim`'s
/// library sources.
fn lint_fixture(name: &str) -> Vec<fftlint::Finding> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let src = std::fs::read_to_string(format!("{dir}/{name}")).expect("fixture readable");
    lint_source(&format!("crates/mpisim/src/{name}"), &src)
}

#[test]
fn clean_fixture_is_clean() {
    assert!(lint_fixture("clean.rs").is_empty());
}

#[test]
fn panic_chain_fixtures_cross_the_crate_boundary() {
    // Two files analyzed together: the executor entry in pretend
    // `distfft/src/exec.rs` seeds reachability, the panics live in a
    // pretend `fftkern` source two hops away.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let exec = std::fs::read_to_string(format!("{dir}/exec_seed.rs")).expect("fixture readable");
    let kern = std::fs::read_to_string(format!("{dir}/panic_chain.rs")).expect("fixture readable");
    let f = fftlint::analyze(&[
        ("crates/distfft/src/exec.rs".to_string(), exec),
        ("crates/fftkern/src/panic_chain.rs".to_string(), kern),
    ]);
    let reach: Vec<(u32, u32)> = f
        .iter()
        .filter(|x| x.rule == rules::PANIC_REACHABLE_FROM_EXEC)
        .map(|x| (x.line, x.col))
        .collect();
    // The unwrap in `deep`, plus the per-fn index summary in `indexed`;
    // `justified`'s unwrap carries an inline allow of this rule.
    assert_eq!(reach, vec![(11, 13), (15, 12)]);
    let unwrap_finding = f
        .iter()
        .find(|x| x.rule == rules::PANIC_REACHABLE_FROM_EXEC && x.line == 11)
        .expect("unwrap finding");
    assert_eq!(unwrap_finding.path, "crates/fftkern/src/panic_chain.rs");
    assert!(
        unwrap_finding.msg.contains("execute -> kern_entry -> deep"),
        "finding must carry the cross-crate chain: {}",
        unwrap_finding.msg
    );
    let index_finding = f
        .iter()
        .find(|x| x.rule == rules::PANIC_REACHABLE_FROM_EXEC && x.line == 15)
        .expect("index summary finding");
    assert!(
        index_finding.msg.contains("2 index expression(s)"),
        "index sites summarize per fn: {}",
        index_finding.msg
    );
}

#[test]
fn fixture_directory_is_excluded_from_workspace_walks() {
    // The fixtures seed deliberate violations; a workspace walk rooted at
    // the repo must never pick them up (CI runs `fftlint --workspace` and
    // requires it clean).
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("repo root");
    let files = fftlint::workspace_files(root).expect("walk");
    assert!(
        !files.is_empty(),
        "walk must find the workspace sources from the repo root"
    );
    assert!(
        files
            .iter()
            .all(|p| !p.to_string_lossy().contains("fixtures")),
        "fixtures leaked into the workspace walk"
    );
}

#[test]
fn panic_reachability_follows_the_reshape_schedule_out_of_exec_rs() {
    // The rule's roots are the functions defined in `distfft/src/exec.rs`;
    // the reshape schedule they interpret lives in `schedule.rs`, and must
    // stay inside the executor's reachable set.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("repo root");
    let files = fftlint::workspace_files(root).expect("walk");
    let f = fftlint::analyze_files(root, &files).expect("sources readable");
    assert!(f.iter().any(|x| x.rule == rules::PANIC_REACHABLE_FROM_EXEC
        && x.path == "crates/distfft/src/schedule.rs"
        && x.msg.contains("run_reshape")));
}
