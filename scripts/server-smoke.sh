#!/usr/bin/env bash
# Server smoke test: start the release daemon, run a client query batch,
# inject one chaos fault, then SIGTERM and assert a graceful drain.
#
# Usage: scripts/server-smoke.sh
#
# Asserts:
#   - the daemon prints its readiness line and serves a query batch
#   - a spec sent twice gets the same answer, the repeat fits no model and
#     is answered without the queue (`served` +2, `queue_hist` count +1)
#   - the injected in-cell panic yields a terminal `internal` error while
#     the daemon keeps serving (ping + stats still answer)
#   - SIGTERM produces a graceful drain: exit code 0, a `drained` receipt
#     on stdout, and a flushed stats sidecar
#   - a second daemon with `--cache-mb 1`, sent fresh-seed queries, evicts
#     splits, keeps its charged `cache_bytes` within the budget, and answers
#     a repeated spec the same across the eviction of its split
#   - that daemon (one worker) answers five cold queries whose deadline is
#     far below their search time with `deadline_exceeded`, and holds at
#     most one more thread after the fifth answer than before the first:
#     no search runs on past its answer
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p dfs-repro --bin dfs-repro
BIN=target/release/dfs-repro

OUT=$(mktemp -d)
SRV=""
CACHE_SRV=""
cleanup() {
  [[ -n "$SRV" ]] && kill "$SRV" 2>/dev/null || true
  [[ -n "$CACHE_SRV" ]] && kill "$CACHE_SRV" 2>/dev/null || true
  rm -rf "$OUT"
}
trap cleanup EXIT

# Prints the address a daemon writing its stdout to $1 listens on, once ready.
await_ready() {
  for _ in $(seq 1 100); do
    grep -q '^listening on ' "$1" 2>/dev/null && break
    sleep 0.1
  done
  sed -n 's/^listening on //p' "$1"
}

export DFS_THREADS="${DFS_THREADS:-4}"
"$BIN" server --addr 127.0.0.1:0 --workers 2 \
  --sidecar "$OUT/stats.ckpt" --chaos 99:panic \
  >"$OUT/server.out" 2>"$OUT/server.err" &
SRV=$!

ADDR=$(await_ready "$OUT/server.out")
if [[ -z "$ADDR" ]]; then
  echo "FAIL: server never became ready" >&2
  cat "$OUT/server.err" >&2
  exit 1
fi
echo "server ready on $ADDR (DFS_THREADS=$DFS_THREADS)"

"$BIN" query --addr "$ADDR" --ping >/dev/null
for req in 1 2 3 4; do
  "$BIN" query --addr "$ADDR" --req-id "$req" \
    --rows 120 --time-ms 300 --max-evals 25 >/dev/null
done
echo "query batch served"

# Warm answers: a spec sent twice is answered the second time from the
# daemon's caches on the connection thread, which records no queue wait.
counter() { sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p"; }
queued() { sed -n 's/.*"queue_hist":"\([0-9]*\);.*/\1/p'; }
untimed() { sed -E 's/"(req_id|elapsed_ms|model_fits|ranking_computes|ranking_hits)":("[0-9]+"|[0-9]+)//g'; }
warm_query() {
  "$BIN" query --addr "$ADDR" --req-id "$1" --rows 120 --seed 31 \
    --strategy sfs --min-f1 0.9 --time-ms 2000 --max-evals 20 2>/dev/null
}
BEFORE=$("$BIN" query --addr "$ADDR" --stats)
ONE=$(warm_query 11)
TWO=$(warm_query 12)
AFTER=$("$BIN" query --addr "$ADDR" --stats)
if [[ -z "$ONE" || "$(untimed <<<"$ONE")" != "$(untimed <<<"$TWO")" ]]; then
  echo "FAIL: a repeated spec answered differently" >&2
  echo "  first:  $ONE" >&2
  echo "  repeat: $TWO" >&2
  exit 1
fi
if [[ "$(counter model_fits <<<"$TWO")" != 0 ]]; then
  echo "FAIL: the repeat fitted models: $TWO" >&2
  exit 1
fi
SERVED=$(( $(counter served <<<"$AFTER") - $(counter served <<<"$BEFORE") ))
QUEUED=$(( $(queued <<<"$AFTER") - $(queued <<<"$BEFORE") ))
if (( SERVED != 2 || QUEUED != 1 )); then
  echo "FAIL: two answers served $SERVED and queued $QUEUED (want 2 and 1)" >&2
  exit 1
fi
echo "warm repeat answered without the queue"

# Chaos: request 99 panics inside its cell. The daemon must answer with a
# terminal `internal` error and stay healthy.
if "$BIN" query --addr "$ADDR" --req-id 99 \
    --rows 120 --time-ms 300 --max-evals 25 >"$OUT/chaos.out" 2>/dev/null; then
  echo "FAIL: chaos query unexpectedly succeeded" >&2
  exit 1
fi
grep -q '"code":"internal"' "$OUT/chaos.out"
"$BIN" query --addr "$ADDR" --stats | grep -q '"panicked":1'
"$BIN" query --addr "$ADDR" --ping >/dev/null
echo "chaos fault isolated: daemon still serving after in-cell panic"

kill -TERM "$SRV"
rc=0
wait "$SRV" || rc=$?
SRV=""
if [[ $rc -ne 0 ]]; then
  echo "FAIL: server exited $rc on SIGTERM (want 0)" >&2
  cat "$OUT/server.err" >&2
  exit 1
fi
grep -q '"drained":true' "$OUT/server.out"
head -1 "$OUT/stats.ckpt" | grep -q 'dfs-server-stats'
echo "server smoke OK: graceful drain, sidecar flushed"

# Bounded cache: a 2500-row compas split is charged 385000 bytes, so a
# 1 MiB budget holds two. Fresh seeds evict the oldest splits.
BUDGET=$((1 << 20))
"$BIN" server --addr 127.0.0.1:0 --workers 1 --cache-mb 1 \
  >"$OUT/cache.out" 2>"$OUT/cache.err" &
CACHE_SRV=$!
CACHE_ADDR=$(await_ready "$OUT/cache.out")
if [[ -z "$CACHE_ADDR" ]]; then
  echo "FAIL: --cache-mb 1 server never became ready" >&2
  cat "$OUT/cache.err" >&2
  exit 1
fi
# The answer to one spec, without its timing and cache-state fields.
answer() {
  "$BIN" query --addr "$CACHE_ADDR" --req-id 7 --rows 2500 --seed "$1" \
    --strategy sfs --min-f1 0.9 --time-ms 2000 --max-evals 10 2>/dev/null |
    sed -E 's/"(elapsed_ms|model_fits|ranking_computes|ranking_hits)":[0-9]+//g'
}
FIRST=$(answer 101)
for seed in 102 103 104 105; do
  answer "$seed" >/dev/null
  BYTES=$("$BIN" query --addr "$CACHE_ADDR" --stats | counter cache_bytes)
  if (( BYTES > BUDGET )); then
    echo "FAIL: cache_bytes $BYTES exceeds the $BUDGET-byte budget" >&2
    exit 1
  fi
done
EVICTIONS=$("$BIN" query --addr "$CACHE_ADDR" --stats | counter cache_evictions)
if (( EVICTIONS == 0 )); then
  echo "FAIL: five fresh seeds evicted nothing under --cache-mb 1" >&2
  exit 1
fi
AGAIN=$(answer 101)
if [[ -z "$FIRST" || "$FIRST" != "$AGAIN" ]]; then
  echo "FAIL: seed 101 answered differently after its split was evicted" >&2
  echo "  first: $FIRST" >&2
  echo "  again: $AGAIN" >&2
  exit 1
fi
echo "bounded cache OK: $EVICTIONS evictions, cache_bytes within $BUDGET, same answer after eviction"

# Deadlines: each query would search for 4 s but must be answered at its
# 150 ms deadline, by the one worker, which stops the search there. One
# thread over the starting count allows for a connection handler that has
# not exited yet.
threads() { sed -n 's/^Threads:[[:space:]]*//p' "/proc/$CACHE_SRV/status"; }
THREADS_BEFORE=$(threads)
for seed in 201 202 203 204 205; do
  LATE=$("$BIN" query --addr "$CACHE_ADDR" --req-id "$seed" --rows 3000 --seed "$seed" \
    --strategy es --model lr --min-f1 0.99 --time-ms 4000 --max-evals 5000 \
    --deadline-ms 150 2>/dev/null || true)
  if ! grep -q '"code":"deadline_exceeded"' <<<"$LATE"; then
    echo "FAIL: a query past its deadline answered: $LATE" >&2
    exit 1
  fi
done
THREADS_AFTER=$(threads)
if (( THREADS_AFTER > THREADS_BEFORE + 1 )); then
  echo "FAIL: $THREADS_AFTER threads after five late queries, $THREADS_BEFORE before" >&2
  exit 1
fi
kill -TERM "$CACHE_SRV"
wait "$CACHE_SRV" || true
CACHE_SRV=""
echo "deadlines OK: five late queries answered deadline_exceeded, threads $THREADS_BEFORE -> $THREADS_AFTER"
