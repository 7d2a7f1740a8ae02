#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it. From the repo root:
#
#   bash bench/run.sh --workload <name> --seed N [--seconds S] [--trace 0|1]
#   bash bench/run.sh --all [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
#   bash bench/run.sh --smoke
#   bash bench/run.sh --compare A.json B.json
#
# The build goes to $CARGO_TARGET_DIR if set (the driver sets it), else to
# bench/target. Build chatter goes to standard error; the last line of
# standard output of a --workload run is the result object.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
export CARGO_TARGET_DIR="$target"

cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/rebeca-e2e" "$@"
