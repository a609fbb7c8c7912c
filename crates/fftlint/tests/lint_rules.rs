//! Fixture tests: every rule fires on a seeded violation with an exact
//! rule id and file:line:col span, and `fftlint:allow` silences it.
//!
//! Fixtures live under `tests/fixtures/` (excluded from `--workspace`
//! walks) and are linted *as if* they sat in a simulated-time library
//! crate, so every rule is in scope.

use fftlint::{lint_source, rules};

/// Reads a fixture and lints it under a pretend path inside `mpisim`'s
/// library sources — a simulated-time crate, so all five rules apply.
fn lint_fixture(name: &str) -> Vec<fftlint::Finding> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let src = std::fs::read_to_string(format!("{dir}/{name}")).expect("fixture readable");
    lint_source(&format!("crates/mpisim/src/{name}"), &src)
}

/// (rule, line, col) triples of the findings.
fn spans(findings: &[fftlint::Finding]) -> Vec<(&'static str, u32, u32)> {
    findings.iter().map(|f| (f.rule, f.line, f.col)).collect()
}

#[test]
fn wallclock_fixture_fires_twice_and_allow_silences_the_third() {
    // Note the fixture is named wallclock_reads.rs: a file named exactly
    // `wallclock.rs` would hit the rule's module allowlist by design.
    let f = lint_fixture("wallclock_reads.rs");
    assert_eq!(
        spans(&f),
        vec![(rules::NO_WALLCLOCK, 3, 25), (rules::NO_WALLCLOCK, 8, 24),]
    );
    assert!(f
        .iter()
        .all(|x| x.path == "crates/mpisim/src/wallclock_reads.rs"));
}

#[test]
fn wallclock_module_allowlist_exempts_dedicated_wallclock_files() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let src =
        std::fs::read_to_string(format!("{dir}/wallclock_reads.rs")).expect("fixture readable");
    let f = lint_source("crates/mpisim/src/wallclock.rs", &src);
    assert!(f.is_empty(), "allowlisted module must be exempt: {f:?}");
}

#[test]
fn unordered_iter_fixture_flags_use_and_bad_iteration_only() {
    let f = lint_fixture("unordered_iter.rs");
    assert_eq!(
        spans(&f),
        vec![
            (rules::NO_UNORDERED_ITER, 2, 23),
            (rules::NO_UNORDERED_ITER, 5, 12),
        ],
        "the allowed lookup and the #[cfg(test)] module must not fire"
    );
}

#[test]
fn panic_fixture_flags_unwrap_and_expect_but_not_fallbacks() {
    let f = lint_fixture("panic_in_lib.rs");
    assert_eq!(
        spans(&f),
        vec![
            (rules::NO_PANIC_IN_LIB, 3, 7),
            (rules::NO_PANIC_IN_LIB, 7, 7),
        ],
        "unwrap_or/unwrap_or_else/unwrap_or_default, the allow-annotated \
         unwrap, and the test module must not fire"
    );
}

#[test]
fn unsafe_fixture_fires_once_and_allow_silences_the_second() {
    let f = lint_fixture("unsafe_block.rs");
    assert_eq!(spans(&f), vec![(rules::NO_UNSAFE, 3, 5)]);
}

#[test]
fn unsafe_rule_has_no_simd_module_carveout() {
    // fftkern's SIMD kernels live behind `#![deny(unsafe_code)]` with
    // per-site `fftlint:allow(no-unsafe)` justifications — the *module*
    // gets no blanket exemption from the linter. Unannotated `unsafe`
    // must keep firing everywhere in fftkern, including simd.rs itself
    // and test/bench targets (rustc's deny does not reach a dropped
    // attribute; the lint does).
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let src = std::fs::read_to_string(format!("{dir}/unsafe_block.rs")).expect("fixture readable");
    for path in [
        "crates/fftkern/src/simd.rs",
        "crates/fftkern/src/stockham.rs",
        "crates/fftkern/src/lib.rs",
        "crates/fftkern/tests/simd_equivalence.rs",
        "crates/bench/src/bin/fig2.rs",
    ] {
        let f = fftlint::lint_source(path, &src);
        assert_eq!(
            spans(&f),
            vec![(rules::NO_UNSAFE, 3, 5)],
            "unannotated unsafe must fire under {path}"
        );
    }
}

#[test]
fn float_reduction_fixture_flags_only_the_unordered_parallel_sum() {
    let f = lint_fixture("float_reduction.rs");
    assert_eq!(
        spans(&f),
        vec![(rules::FLOAT_REDUCTION_ORDER, 3, 7)],
        "integer parallel, serial float, index-sorted merge, and the \
         allow-annotated sum must not fire"
    );
}

#[test]
fn clean_fixture_is_clean() {
    assert!(lint_fixture("clean.rs").is_empty());
}

#[test]
fn hot_alloc_fixture_flags_the_two_hop_chain_only() {
    // The pooled take is exempt, the annotated capacity-0 sentinel is
    // suppressed, and `cold` allocates freely — only the allocation two
    // hops below the `fftlint:hot` driver fires.
    let f = lint_fixture("hot_alloc.rs");
    assert_eq!(spans(&f), vec![(rules::NO_ALLOC_IN_HOT_PATH, 16, 17)]);
    assert!(
        f[0].msg.contains("driver -> stage -> deep"),
        "finding must carry the call chain: {}",
        f[0].msg
    );
}

#[test]
fn lock_pair_fixture_flags_both_shapes_and_allow_silences_backward() {
    // `forward` (lexical pair) and `outer` (hold-and-call via `tail`) are
    // flagged against `backward`'s reversed order; `backward`'s own site
    // carries the inline justification.
    let f = lint_fixture("lock_pair.rs");
    assert_eq!(
        spans(&f),
        vec![(rules::LOCK_ORDER, 8, 20), (rules::LOCK_ORDER, 20, 5)]
    );
    assert!(
        f[1].msg.contains("via call to `tail`"),
        "interprocedural finding must name the callee: {}",
        f[1].msg
    );
    assert!(
        f.iter().all(|x| x.msg.contains("lock_pair.rs:14")),
        "findings must point at the reversing site"
    );
}

#[test]
fn env_probe_fixture_fires_once_and_is_exempt_as_fftobs_env() {
    let f = lint_fixture("env_probe.rs");
    assert_eq!(spans(&f), vec![(rules::ENV_READ_OUTSIDE_FFTOBS, 6, 10)]);

    // The identical source *as* the sanctioned implementation file is clean.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let src = std::fs::read_to_string(format!("{dir}/env_probe.rs")).expect("fixture readable");
    let f = fftlint::lint_source("crates/obs/src/env.rs", &src);
    assert!(
        f.iter().all(|x| x.rule != rules::ENV_READ_OUTSIDE_FFTOBS),
        "the fftobs env module must be exempt: {f:?}"
    );
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
    // `justified`'s unwrap is discharged by its written `no-panic-in-lib`
    // invariant, which covers reachability too.
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
