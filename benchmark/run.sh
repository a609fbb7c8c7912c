#!/usr/bin/env bash
# Builds fftbench (release, offline) and runs it. From the repository root:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, one pass; the last line of stdout is the result object
#       (this is the form BENCHMARK.json's "command" is called in)
#   benchmark/run.sh [--seed N] [--workload W]
#       the suite: every workload, untraced then traced, each pass in its own
#       process; prints every metric and writes benchmark/out/
#   benchmark/run.sh --smoke [--seed N]
#       the suite on a fiftieth of the measuring time with 3 cold starts,
#       then cargo fmt --check and cargo clippy -D warnings on this package;
#       non-zero exit on any failed op, missing metric or broken self-check
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The FFT_* variables retune the crates at run time (threads, grain, SIMD
# tier, reshape chunks, ledger). The harness pins each of those choices
# itself, so none may leak in from the caller's shell.
for v in "${!FFT_@}"; do unset "$v"; done

manifest=benchmark/Cargo.toml
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --manifest-path "$manifest" 1>&2
bin="$target/release/fftbench"

mode=suite
for a in "$@"; do
  case "$a" in
    --trace) mode=pass ;;
    --smoke) mode=smoke ;;
  esac
done

case "$mode" in
  pass)
    exec "$bin" "$@" --out benchmark/out
    ;;
  smoke)
    "$bin" "$@" --out benchmark/out
    cargo fmt --manifest-path "$manifest" -- --check
    cargo clippy --offline --manifest-path "$manifest" -- -D warnings
    ;;
  suite)
    exec "$bin" --suite "$@" --out benchmark/out
    ;;
esac
