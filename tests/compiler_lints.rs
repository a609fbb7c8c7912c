//! Guards for the determinism and panic rules that rustc and clippy
//! enforce (DESIGN.md §12). The lints only bite while their configuration
//! is in place: a dropped `[lints]` entry, crate-root attribute or
//! `clippy.toml` line would let the violation it guarded compile again
//! without a word. These tests read that configuration and fail when any
//! piece goes missing.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Directories of the project's own packages: the root package and every
/// `crates/*` member (vendored stand-ins under `vendor/` are not project
/// code).
fn package_dirs() -> Vec<PathBuf> {
    let root = repo_root();
    let mut dirs = vec![root.clone()];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ readable") {
        let dir = entry.expect("crates/ entry").path();
        if dir.join("Cargo.toml").is_file() {
            dirs.push(dir);
        }
    }
    dirs.sort();
    assert!(dirs.len() > 5, "package walk found only {dirs:?}");
    dirs
}

/// The `key = value` lines of a TOML document's `[section]` (`""` for the
/// top-level table), with surrounding whitespace trimmed.
fn section(toml: &str, name: &str) -> Vec<(String, String)> {
    let header = format!("[{name}]");
    let mut inside = name.is_empty();
    let mut out = Vec::new();
    for line in toml.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == header;
        } else if let (true, Some((k, v))) = (inside, line.split_once('=')) {
            out.push((k.trim().to_string(), v.trim().to_string()));
        }
    }
    out
}

fn has(entries: &[(String, String)], key: &str, value: &str) -> bool {
    entries.iter().any(|(k, v)| k == key && v == value)
}

fn lints_of(dir: &Path, table: &str) -> Vec<(String, String)> {
    section(&read(&dir.join("Cargo.toml")), table)
}

#[test]
fn every_package_forbids_unsafe_code() {
    for dir in package_dirs() {
        // fftkern's SIMD kernels are the one `unsafe` perimeter; `deny`
        // lets `simd.rs` open it with a module-level allow.
        let level = if dir.ends_with("fftkern") {
            "\"deny\""
        } else {
            "\"forbid\""
        };
        assert!(
            has(&lints_of(&dir, "lints.rust"), "unsafe_code", level),
            "{}/Cargo.toml must set `unsafe_code = {level}` under [lints.rust]",
            dir.display()
        );
    }
}

#[test]
fn every_package_denies_undocumented_unsafe_blocks() {
    for dir in package_dirs() {
        assert!(
            has(
                &lints_of(&dir, "lints.clippy"),
                "undocumented_unsafe_blocks",
                "\"deny\""
            ),
            "{}/Cargo.toml must set `undocumented_unsafe_blocks = \"deny\"` under [lints.clippy]",
            dir.display()
        );
    }
    // The SIMD module opens `unsafe_code` only: every block in it still
    // needs its `// SAFETY:` comment.
    let simd = read(&repo_root().join("crates/fftkern/src/simd.rs"));
    assert!(simd.contains("#![allow(unsafe_code)]"));
    assert!(
        !simd
            .lines()
            .map(str::trim_start)
            .any(|l| l.starts_with("#") && l.contains("undocumented_unsafe_blocks")),
        "simd.rs must not carve itself out of clippy::undocumented_unsafe_blocks"
    );
}

#[test]
fn every_lib_crate_root_denies_unwrap_and_expect() {
    let mut roots = 0;
    for dir in package_dirs() {
        let lib = dir.join("src/lib.rs");
        if !lib.is_file() {
            continue;
        }
        roots += 1;
        assert!(
            read(&lib)
                .lines()
                .any(|l| l.trim() == "#![deny(clippy::unwrap_used, clippy::expect_used)]"),
            "{} must deny clippy::unwrap_used and clippy::expect_used",
            lib.display()
        );
    }
    assert!(roots > 5, "found only {roots} lib crate roots");
    // Unit tests inside a lib may still unwrap.
    let top = section(&crates_clippy_toml(), "");
    assert!(has(&top, "allow-unwrap-in-tests", "true"));
    assert!(has(&top, "allow-expect-in-tests", "true"));
}

#[test]
fn engine_lib_roots_deny_indexing_slicing() {
    // Every number the reproduction prints comes from these four crates.
    const DENY: &str = "#![deny(clippy::indexing_slicing)]";
    for name in ["distfft", "fftkern", "mpisim", "simgrid"] {
        let src = repo_root().join("crates").join(name).join("src");
        let lib = src.join("lib.rs");
        assert!(
            read(&lib).lines().any(|l| l.trim() == DENY),
            "{} must deny clippy::indexing_slicing",
            lib.display()
        );
        // Past the root deny, the lint may only be named by one
        // function's `#[expect]` (one line, or rustfmt's multi-line form):
        // no `allow`, no module-wide attribute.
        for entry in std::fs::read_dir(&src).expect("src/ readable") {
            let path = entry.expect("src/ entry").path();
            let text = read(&path);
            let lines: Vec<&str> = text.lines().map(str::trim).collect();
            for (i, line) in lines.iter().enumerate() {
                if !line.contains("indexing_slicing") || *line == DENY {
                    continue;
                }
                let attr = if line.starts_with('#') {
                    line
                } else {
                    lines[i.saturating_sub(1)]
                };
                assert!(
                    attr.starts_with("#[expect("),
                    "{}:{}: clippy::indexing_slicing may only be expected on a function",
                    path.display(),
                    i + 1
                );
            }
        }
    }
    // Unit tests inside those libs may still index.
    let top = section(&crates_clippy_toml(), "");
    assert!(has(&top, "allow-indexing-slicing-in-tests", "true"));
}

/// `crates/clippy.toml`, after checking no root-level file shadows it.
fn crates_clippy_toml() -> String {
    let root = repo_root();
    // A root-level file would also reach the benchmark package, which
    // measures wall-clock time on purpose.
    for stray in ["clippy.toml", ".clippy.toml"] {
        assert!(
            !root.join(stray).exists(),
            "{stray} at the repo root would lint benchmark/ too; keep it in crates/"
        );
    }
    read(&root.join("crates/clippy.toml"))
}

/// Asserts `crates/clippy.toml`'s `key` list names each of `paths`.
fn assert_disallowed(key: &str, paths: &[&str]) {
    let toml = crates_clippy_toml();
    let start = toml
        .find(&format!("{key} = ["))
        .unwrap_or_else(|| panic!("crates/clippy.toml has no {key} list"));
    let len = toml[start..].find("\n]").expect("list is closed");
    let list = &toml[start..start + len];
    for path in paths {
        assert!(
            list.contains(&format!("path = \"{path}\"")),
            "{key} must name {path}"
        );
    }
}

#[test]
fn clippy_toml_disallows_hashmap_and_hashset() {
    assert_disallowed(
        "disallowed-types",
        &["std::collections::HashMap", "std::collections::HashSet"],
    );
}

#[test]
fn clippy_toml_disallows_wallclock_reads() {
    assert_disallowed(
        "disallowed-methods",
        &["std::time::Instant::now", "std::time::SystemTime::now"],
    );
}

#[test]
fn clippy_toml_disallows_env_reads() {
    assert_disallowed("disallowed-methods", &["std::env::var", "std::env::var_os"]);
}
