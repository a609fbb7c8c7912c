//! The committed findings baseline.
//!
//! `fftlint-baseline.json` pins the reviewed pre-existing findings (mostly
//! `panic-reachable-from-exec` sites carried from before the rule existed).
//! A baseline run classifies every current finding against the pinned set:
//!
//! * **new** — produced now, not pinned → fail (the contract regressed);
//! * **unchanged** — produced now and pinned → suppressed;
//! * **stale** — pinned but no longer produced → *also fail*: the finding
//!   was fixed (or drifted to a different span) and the baseline must be
//!   refreshed with `--write-baseline`, so the pin never outlives the code
//!   it describes.
//!
//! Matching is exact on (rule, path, line, col, msg) — msg included so a
//! finding whose call chain changed re-surfaces for review.

use std::collections::BTreeMap;

use fftobs::json::{self, Json};

use crate::rules::{Finding, ALL_RULES};

/// Schema tag written into (and required from) every baseline file.
pub const SCHEMA: &str = "fftlint-baseline-v1";

/// Result of classifying current findings against a baseline.
#[derive(Debug, Default)]
pub struct Applied {
    /// Findings not in the baseline — these fail the run.
    pub new: Vec<Finding>,
    /// Findings suppressed by a baseline pin.
    pub unchanged: Vec<Finding>,
    /// Baseline entries no longer produced — these fail the run too.
    pub stale: Vec<Finding>,
}

fn key(f: &Finding) -> (String, String, u32, u32, String) {
    (
        f.rule.to_string(),
        f.path.clone(),
        f.line,
        f.col,
        f.msg.clone(),
    )
}

/// Classifies `findings` against parsed baseline `entries` (multiset
/// matching, so duplicate spans pin one-for-one).
pub fn apply(findings: &[Finding], entries: &[Finding]) -> Applied {
    let mut pinned: BTreeMap<(String, String, u32, u32, String), u32> = BTreeMap::new();
    for e in entries {
        *pinned.entry(key(e)).or_insert(0) += 1;
    }
    let mut out = Applied::default();
    for f in findings {
        match pinned.get_mut(&key(f)) {
            Some(n) if *n > 0 => {
                *n -= 1;
                out.unchanged.push(f.clone());
            }
            _ => out.new.push(f.clone()),
        }
    }
    for e in entries {
        if let Some(n) = pinned.get_mut(&key(e)) {
            if *n > 0 {
                *n -= 1;
                out.stale.push(e.clone());
            }
        }
    }
    out
}

/// Serializes findings as a pretty-printed, sorted, newline-terminated
/// baseline document (stable bytes for reviewable diffs).
pub fn render(findings: &[Finding]) -> String {
    let mut sorted: Vec<&Finding> = findings.iter().collect();
    sorted.sort_by_key(|f| key(f));
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str("  \"findings\": [");
    for (i, f) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \"msg\": \"{}\"}}",
            json::escape(f.rule),
            json::escape(&f.path),
            f.line,
            f.col,
            json::escape(&f.msg)
        ));
    }
    if !sorted.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Parses a baseline document. Unknown rule ids, a wrong schema tag, or
/// malformed members are hard errors — a corrupt baseline must never be
/// silently treated as empty.
pub fn parse(text: &str) -> Result<Vec<Finding>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        other => return Err(format!("bad baseline schema {other:?}, want \"{SCHEMA}\"")),
    }
    let Some(items) = doc.get("findings").and_then(Json::as_array) else {
        return Err("baseline missing \"findings\" array".to_string());
    };
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let field = |k: &str| -> Result<&Json, String> {
            item.get(k)
                .ok_or_else(|| format!("baseline finding #{i} missing \"{k}\""))
        };
        let rule_name = field("rule")?
            .as_str()
            .ok_or_else(|| format!("baseline finding #{i}: \"rule\" not a string"))?;
        let Some(rule) = ALL_RULES.iter().find(|r| **r == rule_name) else {
            return Err(format!(
                "baseline finding #{i}: unknown rule \"{rule_name}\""
            ));
        };
        let s = |k: &str| -> Result<String, String> {
            field(k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("baseline finding #{i}: \"{k}\" not a string"))
        };
        let n = |k: &str| -> Result<u32, String> {
            field(k)?
                .as_f64()
                .filter(|x| *x >= 0.0 && x.fract() == 0.0)
                .map(|x| x as u32)
                .ok_or_else(|| format!("baseline finding #{i}: \"{k}\" not a u32"))
        };
        out.push(Finding {
            rule,
            path: s("path")?,
            line: n("line")?,
            col: n("col")?,
            msg: s("msg")?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules;

    fn finding(rule: &'static str, path: &str, line: u32, col: u32, msg: &str) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            col,
            msg: msg.to_string(),
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let fs = vec![
            finding(
                rules::NO_UNSAFE,
                "crates/a/src/x.rs",
                3,
                7,
                "msg \"quoted\"",
            ),
            finding(
                rules::LOCK_ORDER,
                "crates/b/src/y.rs",
                1,
                2,
                "chain -> deep",
            ),
        ];
        let text = render(&fs);
        let back = parse(&text).expect("round trip");
        assert_eq!(back.len(), 2);
        // Sorted by key: lock-order < no-unsafe.
        assert_eq!(back[0].rule, rules::LOCK_ORDER);
        assert_eq!(back[1].msg, "msg \"quoted\"");
    }

    #[test]
    fn apply_classifies_new_unchanged_stale() {
        let pinned = vec![
            finding(rules::NO_UNSAFE, "a.rs", 1, 1, "m"),
            finding(rules::NO_UNSAFE, "b.rs", 2, 2, "gone"),
        ];
        let current = vec![
            finding(rules::NO_UNSAFE, "a.rs", 1, 1, "m"),
            finding(rules::NO_UNSAFE, "c.rs", 3, 3, "fresh"),
        ];
        let r = apply(&current, &pinned);
        assert_eq!(r.unchanged.len(), 1);
        assert_eq!(r.new.len(), 1);
        assert_eq!(r.new[0].path, "c.rs");
        assert_eq!(r.stale.len(), 1);
        assert_eq!(r.stale[0].path, "b.rs");
    }

    #[test]
    fn parse_rejects_corrupt_documents() {
        assert!(parse("{}").is_err());
        assert!(parse(&format!(
            "{{\"schema\": \"{SCHEMA}\", \"findings\": [{{\"rule\": \"nope\", \"path\": \"p\", \"line\": 1, \"col\": 1, \"msg\": \"m\"}}]}}"
        ))
        .is_err());
        assert!(parse(&format!("{{\"schema\": \"{SCHEMA}\"}}")).is_err());
    }
}
