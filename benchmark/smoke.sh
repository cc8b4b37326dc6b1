#!/usr/bin/env bash
# The A/A check a reviewer can repeat with one command, from the root of
# the repository:
#
#   bash benchmark/smoke.sh [runs-per-side]
#
# Builds `topobench` and `dcbench` into one target directory, runs the
# benchmark's own tests (which include `dcbench run --quick`), then two
# sets of full runs of the same code and `dcbench compare` on them. The
# sets alternate, so slow drift of the host lands on both sides. Exits
# non-zero if a test fails, an op fails, or any row reads `regressed`.
set -euo pipefail

runs="${1:-1}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
out="${DCBENCH_OUT:-dcbench-out}/smoke"

cargo build --release --offline --bin topobench
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline --manifest-path benchmark/Cargo.toml
dcbench="$CARGO_TARGET_DIR/release/dcbench"

a=() b=()
for i in $(seq 1 "$runs"); do
    "$dcbench" run --out "$out/a$i" --history "$out/history.jsonl"
    "$dcbench" run --out "$out/b$i" --history "$out/history.jsonl"
    a+=("$out/a$i/results.json") b+=("$out/b$i/results.json")
done
join() { local IFS=,; echo "$*"; }
"$dcbench" compare "$(join "${a[@]}")" "$(join "${b[@]}")"
