#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds `topobench` (the program `serve-whatif` drives) and `dcbench`
# from source into one target directory, then hands its arguments to
# `dcbench run`. After the first call the two builds are no-ops.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin topobench 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/dcbench" run "$@"
