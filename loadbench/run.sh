#!/usr/bin/env bash
# Builds failctl (from the repository workspace) and loadbench (its own
# package) into one target directory, where loadbench finds failctl next
# to itself, then runs loadbench with the given arguments. Build output
# goes to stderr so that stdout ends with loadbench's result line.
#
#   bash loadbench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
#   bash loadbench/run.sh compare A.ndjson B.ndjson
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p failctl >&2
cargo build --release --offline --quiet --manifest-path loadbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/loadbench" "$@"
