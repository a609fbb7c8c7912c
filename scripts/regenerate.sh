#!/usr/bin/env bash
# Regenerates every paper table/figure into results/, then runs the full
# test suite. Usage: scripts/regenerate.sh
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p results
# exascale takes ~10 minutes (8192-rank projections); the rest are fast.
for target in table1 table3 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 sweep models_compare exascale fidelity; do
    echo "== $target"
    cargo run --release -q -p fft-bench --bin "$target" > "results/$target.txt"
done
cargo test --workspace --release
echo "done: see results/ and EXPERIMENTS.md"
