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
# Also the determinism and panic rules a single token decides (DESIGN.md
# §12): `unsafe_code` and `undocumented_unsafe_blocks` from each package's
# [lints], `unwrap_used`/`expect_used` denied at every lib crate root,
# `indexing_slicing` denied at the four engine roots (distfft, fftkern,
# mpisim, simgrid; each indexing function carries a justified `#[expect]`,
# and crates/clippy.toml lets their unit tests index), and clippy.toml's
# disallowed HashMap/HashSet, Instant::now/SystemTime::now and
# std::env::var/var_os — on every target, tests included. A stale
# `#[expect]` fails here too.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc -D warnings =="
# Every intra-doc link resolves to a public item (~10 s on a 2-vCPU host).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "== cargo test =="
# Chunk counts {1, 4, auto} and SIMD tiers are explicit rows of the suite
# (plan options and `fftkern::simd::force_tier`), so one leg covers them.
cargo test --workspace --offline -q

echo "== examples (release) =="
# Each example asserts its own numeric checks (DESIGN.md §4); compiling
# them is not running them. All six take ~20 s on a 2-vCPU host, their
# release build included.
for ex in quickstart irregular_grids batched_spectral lammps_kspace \
    poisson_solver tuning_advisor; do
    cargo run --release --offline -q --example "$ex" >"$TDIR/$ex.out" || {
        echo "FAIL: example $ex" >&2
        cat "$TDIR/$ex.out" >&2
        exit 1
    }
    echo "$ex: ok"
done

echo "== figures vs committed results (release) =="
# Every figure harness must reproduce its committed results/*.txt byte for
# byte — the absolute pin on simulated time for the monolithic path of all
# four backends, at paper scale and at `exascale`'s 1 024 nodes, plus
# `fidelity`'s paper-anchor table. ~42 s in release on a 2-vCPU host,
# `exascale` taking ~30 s of it (566 MB peak RSS) and fig5 ~6 s; each
# binary's wall seconds print beside its check. The list is every binary
# under crates/bench/src/bin, and each must pair with one results file.
for r in results/*.txt; do
    b=$(basename "$r" .txt)
    [ -f "crates/bench/src/bin/$b.rs" ] || {
        echo "FAIL: $r has no figure binary crates/bench/src/bin/$b.rs" >&2
        exit 1
    }
done
cargo build --release --offline -q -p fft-bench
for src in crates/bench/src/bin/*.rs; do
    b=$(basename "$src" .rs)
    [ -f "results/$b.txt" ] || {
        echo "FAIL: figure binary $b has no results/$b.txt" >&2
        exit 1
    }
    t0=$(date +%s)
    "./target/release/$b" >"$TDIR/$b.out"
    secs=$(($(date +%s) - t0))
    cmp "$TDIR/$b.out" "results/$b.txt" || {
        echo "FAIL: $b stdout differs from results/$b.txt (${secs} s)" >&2
        exit 1
    }
    echo "$b: ${secs} s, matches results/$b.txt"
done

echo "== benchmark smoke =="
# The repo's benchmark (BENCHMARK.json) on a fiftieth of its measuring
# time: every workload's ops must succeed and its self-checks hold (seven
# simulated phases tile the op, byte counters agree, exec == dry-run on
# c2c), plus fmt and clippy on the benchmark package.
bash benchmark/run.sh --smoke

echo "CI green."
