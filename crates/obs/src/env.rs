//! Warn-once typed parsing of `FFT_*` tuning variables.
//!
//! Every runtime knob in the stack — there are three: `FFT_RESHAPE_CHUNKS`,
//! `FFT_SIMD` and the CI-only `FFT_FIG5_MAX_NODES` — has the same
//! correctness needs: a typed parse with clamping, and a *loud but not
//! noisy* failure mode — a silently ignored knob is worse than no knob (a
//! typoed thread count once quietly ran serial benchmarks), while a
//! warning per read would spam a sweep that reads the knob thousands of
//! times. This module is the single shared implementation: one parse
//! shape, one message format, one warn-once registry keyed by variable
//! name.
//!
//! Warnings go to **stderr** only — stdout byte-stability of the figure
//! harnesses is a repo-wide contract.

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

/// Per-process set of variables already warned about.
fn warned() -> &'static Mutex<BTreeSet<&'static str>> {
    static WARNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(BTreeSet::new()))
}

/// Emits `msg` to stderr the first time `var` warns in this process.
/// Returns true when the message was actually printed (tests hook this).
pub fn warn_ignored_once(var: &'static str, msg: &str) -> bool {
    let mut set = warned().lock().unwrap_or_else(|e| e.into_inner());
    if set.insert(var) {
        eprintln!("{msg}");
        true
    } else {
        false
    }
}

/// Reads and parses the environment variable `var`.
///
/// * unset → `None`, silently (the knob simply isn't in play);
/// * set and `parse` accepts it → `Some(value)`;
/// * set and `parse` rejects it → `None`, after warning **once per
///   process per variable** naming the expected grammar and the fallback
///   the caller will use.
pub fn parse_var<T>(
    var: &'static str,
    expected: &str,
    fallback: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    let value = std::env::var(var).ok()?;
    match parse(&value) {
        Some(t) => Some(t),
        None => {
            warn_ignored_once(
                var,
                &format!(
                    "fftobs: ignoring invalid {var}={value:?} (expected {expected}); \
                     using {fallback}"
                ),
            );
            None
        }
    }
}

/// The common numeric knob shape: a whitespace-trimmed integer, clamped
/// to ≥ 1 (`0` means "smallest sensible", never "off"). Rejects anything
/// non-numeric, negative, or fractional. Pure, so the accept/reject
/// behavior is unit-testable without touching process-global environment
/// state.
pub fn parse_positive(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().map(|n| n.max(1))
}

/// [`parse_var`] specialized to [`parse_positive`] — the shape of every
/// integer executor knob.
pub fn positive_var(var: &'static str, fallback: &str) -> Option<usize> {
    parse_var(var, "a positive integer", fallback, parse_positive)
}

/// True when `var` is set (to anything, including empty). For presence
/// gates — e.g. tests that skip themselves while a CI sweep forces an
/// override — where the *value* is owned by some other reader.
pub fn is_set(var: &str) -> bool {
    std::env::var_os(var).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_parse_accepts_integers_and_clamps_zero() {
        assert_eq!(parse_positive("4"), Some(4));
        assert_eq!(parse_positive(" 16 "), Some(16));
        assert_eq!(parse_positive("1"), Some(1));
        assert_eq!(parse_positive("0"), Some(1));
    }

    #[test]
    fn positive_parse_rejects_garbage() {
        assert_eq!(parse_positive("fourteen"), None);
        assert_eq!(parse_positive(""), None);
        assert_eq!(parse_positive("-2"), None);
        assert_eq!(parse_positive("4.5"), None);
    }

    #[test]
    fn presence_accessor_sees_unset_vars() {
        assert!(!is_set("FFT_ENV_TEST_NEVER_SET"));
    }

    #[test]
    fn unset_var_is_silent_none() {
        assert_eq!(positive_var("FFT_ENV_TEST_NEVER_SET", "the default"), None);
    }

    #[test]
    fn warnings_fire_once_per_var() {
        assert!(warn_ignored_once("FFT_ENV_TEST_WARN_A", "first"));
        assert!(!warn_ignored_once("FFT_ENV_TEST_WARN_A", "second"));
        assert!(warn_ignored_once(
            "FFT_ENV_TEST_WARN_B",
            "other var still warns"
        ));
    }
}
