#!/usr/bin/env bash
# Regenerate every committed BENCH_*.json snapshot at one commit on one host.
#
# Usage: scripts/bench-snapshots.sh
#
# Builds the dfs-bench binaries in release mode and runs bench_memo and
# bench_obs in full mode (no --smoke), each writing BENCH_<name>.json at the
# repo root. Every binary keeps its own gates; the script stops at the first
# one that exits nonzero. Run it on an otherwise idle host and commit the
# two files together, so their git_commit and host_cpus stamps agree.
# bench_obs's traced run exports into $DFS_TRACE_DIR (default:
# target/bench-traces).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p dfs-bench --bins
export DFS_TRACE_DIR="${DFS_TRACE_DIR:-target/bench-traces}"
for name in memo obs; do
  echo "== bench_$name" >&2
  "target/release/bench_$name" "BENCH_$name.json"
done
