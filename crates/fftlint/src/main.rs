//! `fftlint` CLI.
//!
//! ```text
//! fftlint --workspace                     lint every project source under the cwd
//! fftlint <file.rs>...                    lint specific files
//! fftlint --workspace --baseline B        suppress findings pinned in B; stale pins fail
//! fftlint --workspace --write-baseline B  regenerate the baseline from current findings
//! fftlint --workspace --diff REF          report only files changed vs git REF
//! fftlint --list-rules                    print the rule ids
//! ```
//!
//! `--diff` narrows *reporting*, not analysis: the call graph is always
//! built workspace-wide so interprocedural findings in changed files stay
//! sound, and stale-baseline failures are skipped (unchanged files may
//! legitimately hold the pins).
//!
//! Exit status: 0 clean, 1 findings (new or stale), 2 usage/IO error.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    workspace: bool,
    explicit: Vec<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    diff: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workspace: false,
        explicit: Vec::new(),
        baseline: None,
        write_baseline: None,
        diff: None,
    };
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a {
            "--workspace" => o.workspace = true,
            "--baseline" => o.baseline = Some(PathBuf::from(value("--baseline")?)),
            "--write-baseline" => {
                o.write_baseline = Some(PathBuf::from(value("--write-baseline")?))
            }
            "--diff" => o.diff = Some(value("--diff")?),
            _ if a.starts_with("--") => return Err(format!("unknown flag {a}")),
            _ => o.explicit.push(PathBuf::from(a)),
        }
        i += 1;
    }
    if !o.workspace && o.explicit.is_empty() {
        return Err("nothing to lint: pass --workspace or files".to_string());
    }
    Ok(o)
}

/// Files changed vs `git_ref` (diff + untracked), workspace-relative.
fn changed_files(root: &std::path::Path, git_ref: &str) -> Result<BTreeSet<String>, String> {
    let mut out = BTreeSet::new();
    for args in [
        vec!["diff", "--name-only", git_ref, "--"],
        vec!["ls-files", "--others", "--exclude-standard"],
    ] {
        let r = std::process::Command::new("git")
            .args(&args)
            .current_dir(root)
            .output()
            .map_err(|e| format!("running git: {e}"))?;
        if !r.status.success() {
            return Err(format!(
                "git {} failed: {}",
                args.join(" "),
                String::from_utf8_lossy(&r.stderr).trim()
            ));
        }
        for line in String::from_utf8_lossy(&r.stdout).lines() {
            let line = line.trim();
            if !line.is_empty() {
                out.insert(line.replace('\\', "/"));
            }
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list-rules") {
        for rule in fftlint::ALL_RULES {
            println!("{rule}");
        }
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fftlint: {e}\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let files = if opts.workspace {
        match fftlint::workspace_files(&root) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("fftlint: walking {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    } else {
        opts.explicit.clone()
    };

    let all = match fftlint::analyze_files(&root, &files) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("fftlint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &opts.write_baseline {
        let text = fftlint::baseline::render(&all);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("fftlint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "fftlint: wrote {} finding(s) to {}",
            all.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    // Classify against the baseline (everything is "new" without one).
    let (mut new, unchanged, mut stale) = match &opts.baseline {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("fftlint: reading {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            match fftlint::baseline::parse(&text) {
                Ok(entries) => {
                    let r = fftlint::baseline::apply(&all, &entries);
                    (r.new, r.unchanged, r.stale)
                }
                Err(e) => {
                    eprintln!("fftlint: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
        None => (all.clone(), Vec::new(), Vec::new()),
    };

    // --diff narrows reporting to changed files; stale pins are skipped
    // because the unchanged remainder of the workspace may hold them.
    if let Some(git_ref) = &opts.diff {
        let changed = match changed_files(&root, git_ref) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("fftlint: {e}");
                return ExitCode::from(2);
            }
        };
        new.retain(|f| changed.contains(&f.path));
        stale.clear();
    }

    for f in &new {
        println!("{f}");
    }
    for s in &stale {
        println!("stale baseline entry (finding no longer produced — refresh with --write-baseline): {s}");
    }
    let suppressed = if unchanged.is_empty() {
        String::new()
    } else {
        format!(", {} baseline-suppressed", unchanged.len())
    };
    if !new.is_empty() || !stale.is_empty() {
        eprintln!(
            "fftlint: {} finding(s), {} stale baseline entr(ies){suppressed} in {} file(s) checked",
            new.len(),
            stale.len(),
            files.len()
        );
        return ExitCode::from(1);
    }
    eprintln!("fftlint: clean ({} files checked{suppressed})", files.len());
    ExitCode::SUCCESS
}

const USAGE: &str = "\
fftlint — workspace determinism linter (two-pass: item trees + call graph)

USAGE:
    fftlint --workspace                     lint all project sources under the cwd
    fftlint <file.rs>...                    lint specific files
    fftlint --workspace --baseline B        suppress findings pinned in B; stale pins fail
    fftlint --workspace --write-baseline B  regenerate the baseline from current findings
    fftlint --workspace --diff REF          report only files changed vs git REF
    fftlint --list-rules                    print the rule ids

Findings print as `path:line:col: rule-id: message`; suppress one with an
inline `// fftlint:allow(rule-id): reason` on the same or previous line, or
pin reviewed pre-existing findings in the committed baseline. Mark hot-path
roots with `// fftlint:hot` above the fn. Exit status: 0 clean, 1 findings
(new or stale), 2 usage/IO error.
";
