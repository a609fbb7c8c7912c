#!/usr/bin/env bash
# Regenerates every paper table/figure into results/, then runs the full
# test suite. Usage: scripts/regenerate.sh
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p results
# One results file per figure binary under crates/bench/src/bin.
# exascale takes ~30 s (1 024-node projections); the rest are seconds.
for src in crates/bench/src/bin/*.rs; do
    target=$(basename "$src" .rs)
    echo "== $target"
    cargo run --release -q -p fft-bench --bin "$target" > "results/$target.txt"
done
cargo test --workspace --release
echo "done: see results/ and EXPERIMENTS.md"
