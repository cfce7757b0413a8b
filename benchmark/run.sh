#!/usr/bin/env bash
# The benchmark's one command: build this package (the benchmark binary and
# the shipped basil-node, both from source, offline), then run it with the
# arguments given. No arguments runs the whole suite; the driver passes
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build output goes to $CARGO_TARGET_DIR, or benchmark/target without it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/basil-benchmark" "$@"
