#!/bin/sh
# Local CI gate: formatting, lints-as-errors, and the full offline test
# suite. Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

TDIR=$(mktemp -d)
trap 'rm -rf "$TDIR"' EXIT

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy -D warnings =="
# Also the determinism rules a single token decides (DESIGN.md §12):
# `unsafe_code` and `undocumented_unsafe_blocks` from each package's
# [lints], `unwrap_used`/`expect_used` denied at every lib crate root, and
# crates/clippy.toml's disallowed HashMap/HashSet, Instant::now/
# SystemTime::now and std::env::var/var_os — on every target, tests
# included. A stale `#[expect]` fails here too.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== fftlint --workspace (baseline) =="
# Call-graph linter (DESIGN.md §12) for the one rule neither the compiler
# nor a test run can decide: panic sites reachable from the executor.
# Allocations, lock nesting and reduction order are tier-1 tests now.
# Deny-by-default; the escapes are an inline justified
# `// fftlint:allow(<rule>)` and the committed findings baseline — new
# findings fail, and silently-fixed pins fail as stale. fftlint lints its
# own crate in the same walk.
cargo run --offline -q -p fftlint -- --workspace \
    --baseline fftlint-baseline.json

echo "== fftlint baseline drift must fail =="
# A doctored baseline (first pin's line edited — a panic-reachable-from-
# exec pin in distfft's boxes.rs) must fail the gate both ways at once:
# the real finding surfaces as new and the doctored pin goes stale.
# Guards the gate itself against silently accepting drift.
sed '0,/"line": [0-9]*/s//"line": 99999/' fftlint-baseline.json \
    >"$TDIR/doctored-baseline.json"
if cargo run --offline -q -p fftlint -- --workspace \
    --baseline "$TDIR/doctored-baseline.json" >/dev/null 2>&1; then
    echo "FAIL: doctored baseline did not fail the lint gate" >&2
    exit 1
fi

echo "== cargo test =="
# Chunk counts {1, 4, auto} and SIMD tiers are explicit rows of the suite
# (plan options and `fftkern::simd::force_tier`), so one leg covers them.
cargo test --workspace --offline -q

echo "== figures vs committed results (release) =="
# Every figure harness must reproduce its committed results/*.txt byte for
# byte — the absolute pin on simulated time for the monolithic path of all
# four backends, at paper scale, plus `fidelity`'s paper-anchor table.
# ~71 s in release on a 2-vCPU host, fig5 taking most of it and
# `fidelity` ~4 s; `exascale` (~4.5 min there) is left out until it runs
# in under 60 s.
cargo build --release --offline -q -p fft-bench
for b in table1 table3 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 \
    fig12 fig13 sweep models_compare fidelity; do
    "./target/release/$b" >"$TDIR/$b.out"
    cmp "$TDIR/$b.out" "results/$b.txt" || {
        echo "FAIL: $b stdout differs from results/$b.txt" >&2
        exit 1
    }
done

echo "== benchmark smoke =="
# The repo's benchmark (BENCHMARK.json) on a fiftieth of its measuring
# time: every workload's ops must succeed and its self-checks hold (seven
# simulated phases tile the op, byte counters agree, exec == dry-run on
# c2c), plus fmt and clippy on the benchmark package.
bash benchmark/run.sh --smoke

echo "CI green."
