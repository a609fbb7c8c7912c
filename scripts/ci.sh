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
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== fftlint --workspace (baseline) =="
# Call-graph-aware determinism linter (DESIGN.md §12): the five
# per-file rules (wall-clock, hash iteration, unsafe, unwrap/expect, float
# reductions) plus the four interprocedural ones (hot-path allocations, env
# discipline, lock order, panic reachability from the executor).
# Deny-by-default; the escapes are an inline justified
# `// fftlint:allow(<rule>)` and the committed findings baseline — new
# findings fail, and silently-fixed pins fail as stale. fftlint lints its
# own crate in the same walk.
cargo run --offline -q -p fftlint -- --workspace \
    --baseline fftlint-baseline.json

echo "== fftlint baseline drift must fail =="
# A doctored baseline (first pin's line edited) must fail the gate both
# ways at once: the real finding surfaces as new and the doctored pin goes
# stale. Guards the gate itself against silently accepting drift.
sed '0,/"line": [0-9]*/s//"line": 99999/' fftlint-baseline.json \
    >"$TDIR/doctored-baseline.json"
if cargo run --offline -q -p fftlint -- --workspace \
    --baseline "$TDIR/doctored-baseline.json" >/dev/null 2>&1; then
    echo "FAIL: doctored baseline did not fail the lint gate" >&2
    exit 1
fi

echo "== cargo test =="
cargo test --workspace --offline -q

echo "== cargo test (FFT_SIMD=off) =="
# The scalar fallback is a first-class code path, not a leftover: the full
# suite must pass with SIMD dispatch pinned off, exactly as it would on a
# non-x86 host. (The default leg above already exercised the widest
# detected tier.)
FFT_SIMD=off cargo test --workspace --offline -q

echo "== cargo test (FFT_RESHAPE_CHUNKS=4) =="
# Pipelined reshapes forced on for every plan (DESIGN.md §14): the whole
# suite — correctness, mode consistency, invariants — must hold with every
# eligible exchange split into per-peer chunks. A/B tests that compare
# chunked vs monolithic detect the override and skip themselves.
FFT_RESHAPE_CHUNKS=4 cargo test --workspace --offline -q

echo "== cargo test (FFT_RESHAPE_CHUNKS=1) =="
# And forced off: plans that ask for chunking fall back to the monolithic
# path, which must stay the bit-identical baseline.
FFT_RESHAPE_CHUNKS=1 cargo test --workspace --offline -q

echo "== cargo test (FFT_RESHAPE_CHUNKS=auto) =="
# Model-driven chunk selection forced on for every plan (DESIGN.md §14):
# auto-k plus transform-ahead butterflies must preserve every correctness,
# consistency, and invariance property, whatever k the model picks per
# group. A/B tests that compare specific chunk settings detect the
# override and skip themselves.
FFT_RESHAPE_CHUNKS=auto cargo test --workspace --offline -q

echo "== figures vs committed results (release) =="
# Every figure harness must reproduce its committed results/*.txt byte for
# byte — the absolute pin on simulated time for the monolithic path of all
# four backends, at paper scale. ~90 s in release, fig5 taking most of it;
# `exascale` (~4.5 min on a 2-core host) is left out until it runs in
# under 60 s.
cargo build --release --offline -q -p fft-bench
for b in table1 table3 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 \
    fig12 fig13 sweep models_compare; do
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
