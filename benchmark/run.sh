#!/usr/bin/env bash
# The one-line entry point: `benchmark/run.sh run --workload ram_scan`, `benchmark/run.sh aa`.
exec cargo run --release --quiet --manifest-path "$(dirname "$0")/Cargo.toml" -- "$@"
