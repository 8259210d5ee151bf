#!/usr/bin/env bash
# Builds the benchmark from source, then runs it pinned to one CPU.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every client loop is closed and every LP solve is serial, so one CPU
# carries the load. Pinning keeps each client/server hand-off on one core:
# on a 2-vCPU VM that halved the run-to-run spread of sub-millisecond
# latencies (cache hits, ingests) and left LP-bound figures unchanged.
# Without `taskset`, or without a readable CPU list, the run is unpinned.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/perfbench"

# The first CPU this process may run on, e.g. "0" from "0-1" or "2,4-5".
cpu="$(sed -nE 's/^Cpus_allowed_list:[[:space:]]*([0-9]+).*/\1/p' /proc/self/status 2>/dev/null || true)"
if [[ -n "$cpu" ]] && command -v taskset >/dev/null 2>&1; then
    exec taskset -c "$cpu" "$bin" "$@"
fi
exec "$bin" "$@"
