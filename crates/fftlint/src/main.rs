//! `fftlint` CLI.
//!
//! ```text
//! fftlint --workspace                     lint every project source under the cwd
//! fftlint <file.rs>...                    lint specific files
//! fftlint --workspace --baseline B        suppress findings pinned in B; stale pins fail
//! fftlint --workspace --write-baseline B  regenerate the baseline from current findings
//! fftlint --list-rules                    print the rule id
//! ```
//!
//! Exit status: 0 clean, 1 findings (new or stale), 2 usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    workspace: bool,
    explicit: Vec<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workspace: false,
        explicit: Vec::new(),
        baseline: None,
        write_baseline: None,
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
    let (new, unchanged, stale) = match &opts.baseline {
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
fftlint — executor panic-reachability linter (two-pass: item trees + call graph)

USAGE:
    fftlint --workspace                     lint all project sources under the cwd
    fftlint <file.rs>...                    lint specific files
    fftlint --workspace --baseline B        suppress findings pinned in B; stale pins fail
    fftlint --workspace --write-baseline B  regenerate the baseline from current findings
    fftlint --list-rules                    print the rule id

Findings print as `path:line:col: rule-id: message`; suppress one with an
inline `// fftlint:allow(rule-id): reason` on the same or previous line, or
pin reviewed pre-existing findings in the committed baseline. Exit status:
0 clean, 1 findings (new or stale), 2 usage/IO error.
";
