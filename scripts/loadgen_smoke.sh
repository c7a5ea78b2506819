#!/usr/bin/env bash
# Exactness-harness smoke test: build innetd, innet-coord and innetload,
# start 1 coordinator + 2 detector shards, fire the checked-in smoke
# scenario (10^3 virtual sensors over the UDP line protocol) at the
# cluster, and assert the run's innetload_smoke.json artifact exists
# and records that both merge modes' answers matched the centralized
# baseline at the exactness checkpoint (innetload exits nonzero on any
# checkpoint mismatch).
#
# Needs: go, curl, bash. CI runs this and uploads the artifact; it is
# also runnable locally: scripts/loadgen_smoke.sh [outdir]
set -euo pipefail

HOST=127.0.0.1
SHARD_HTTP=("$HOST:18181" "$HOST:18182")
SHARD_CTL=("$HOST:19181" "$HOST:19182")
COORD_HTTP=$HOST:18180
COORD_UDP=$HOST:19980
OUTDIR=${1:-$(mktemp -d)}
BINDIR=$(mktemp -d)
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

# Must match scripts/scenarios/smoke.json's detector block: the harness
# recomputes expected answers with these parameters.
DETFLAGS=(-ranker knn -k 2 -n 3 -window 600s)

echo "== build"
go build -o "$BINDIR/innetd" ./cmd/innetd
go build -o "$BINDIR/innet-coord" ./cmd/innet-coord
go build -o "$BINDIR/innetload" ./cmd/innetload

echo "== start 2 detector shards"
for i in 0 1; do
  "$BINDIR/innetd" -http "${SHARD_HTTP[$i]}" -shard "${SHARD_CTL[$i]}" "${DETFLAGS[@]}" &
  PIDS+=($!)
done

echo "== start the coordinator"
"$BINDIR/innet-coord" -http "$COORD_HTTP" -udp "$COORD_UDP" \
  -shards "$(IFS=,; echo "${SHARD_CTL[*]}")" \
  -health-interval 100ms "${DETFLAGS[@]}" &
PIDS+=($!)

wait_ok() {
  for _ in $(seq 1 100); do
    curl -fsS "http://$1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "no health from $1" >&2
  return 1
}

echo "== wait for health"
for addr in "${SHARD_HTTP[@]}"; do wait_ok "$addr"; done
wait_ok "$COORD_HTTP"

echo "== run the smoke scenario"
"$BINDIR/innetload" -scenario scripts/scenarios/smoke.json \
  -http "http://$COORD_HTTP" -udp "$COORD_UDP" \
  -shard-http "$(printf 'http://%s,' "${SHARD_HTTP[@]}" | sed 's/,$//')" \
  -out "$OUTDIR" -v

REPORT=$OUTDIR/innetload_smoke.json
echo "== check the artifact: $REPORT"
[[ -s "$REPORT" ]] || { echo "missing artifact $REPORT" >&2; exit 1; }
# innetload already exits nonzero on a mismatch; the artifact must say
# the same thing to whoever reads it later: the one checkpoint the
# scenario asks for matched, in both merge modes.
for field in '"checkpoints_ok": true' '"match": true' '"compact": true' '"full": true'; do
  grep -q -- "$field" "$REPORT" || {
    echo "artifact lacks $field:" >&2
    cat "$REPORT" >&2
    exit 1
  }
done

cat "$REPORT"
echo "loadgen smoke: OK"
