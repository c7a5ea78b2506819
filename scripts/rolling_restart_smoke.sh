#!/usr/bin/env bash
# Rolling-restart end-to-end test for the durable store: start 1
# coordinator + 3 detector shards, every shard with its own -data-dir
# (the coordinator holds no durable state), at replicas=1 — so a
# restarted shard's window survives ONLY via its WAL, not via a sibling
# replica. Fill both the cluster and a single-process reference innetd
# with the same data, then:
#
#   1. SIGTERM + restart each shard in sequence, asserting the merged
#      outlier answer equals the never-restarted reference after every
#      step (the WAL replay must restore the exact window).
#   2. Cold-stop the WHOLE cluster (coordinator included), restart it,
#      and assert the merged answer comes back with zero surviving
#      replicas.
#   3. Ingest a fresh burst into both sides and assert they still agree:
#      a new reading is a new point next to the replayed ones.
#   4. Restart the coordinator alone mid-window and re-send the burst,
#      as a producer retrying across the restart would: the shards count
#      every copy as a repeat, and neither the merged window's size nor
#      the answer moves.
#
# Needs: go, curl, bash (uses /dev/udp). CI runs this; it is also
# runnable locally: scripts/rolling_restart_smoke.sh
set -euo pipefail

HOST=127.0.0.1
SINGLE_HTTP=$HOST:18190
SHARD_HTTP=("$HOST:18191" "$HOST:18192" "$HOST:18193")
SHARD_CTL=("$HOST:19201" "$HOST:19202" "$HOST:19203")
COORD_HTTP=$HOST:18194
COORD_UDP_PORT=19981
BINDIR=$(mktemp -d)
DATADIR=$(mktemp -d)
SHARD_PIDS=(0 0 0)
COORD_PID=0
SINGLE_PID=0

cleanup() {
  for pid in "${SHARD_PIDS[@]}" "$COORD_PID" "$SINGLE_PID"; do
    [[ "$pid" != 0 ]] && kill "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

DETFLAGS=(-ranker nn -n 1 -window 10m)

echo "== build"
go build -o "$BINDIR/innetd" ./cmd/innetd
go build -o "$BINDIR/innet-coord" ./cmd/innet-coord

start_shard() { # start_shard <index>
  "$BINDIR/innetd" -http "${SHARD_HTTP[$1]}" -shard "${SHARD_CTL[$1]}" \
    -data-dir "$DATADIR/shard$1" "${DETFLAGS[@]}" &
  SHARD_PIDS[$1]=$!
}

start_coord() {
  "$BINDIR/innet-coord" -http "$COORD_HTTP" -udp "$HOST:$COORD_UDP_PORT" \
    -shards "$(IFS=,; echo "${SHARD_CTL[*]}")" -replicas 1 \
    -health-interval 100ms "${DETFLAGS[@]}" &
  COORD_PID=$!
}

wait_ok() {
  for _ in $(seq 1 100); do
    curl -fsS "http://$1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "no health from $1" >&2
  return 1
}

stop_pid() { # SIGTERM and wait for a clean exit (shutdown compacts the WAL)
  kill -TERM "$1" 2>/dev/null || true
  wait "$1" 2>/dev/null || true
}

outliers() { # extract the outlier array from a query response
  grep -o '"outliers":\[[^]]*\]' <<<"$1"
}

metric() { # metric <host:port> <name> — one counter from /metrics
  curl -fsS "http://$1/metrics" | awk -v m="$2" '$1 == m {print $2}'
}

repeated() { # innetd_readings_repeated_total summed over the shards
  local SUM=0
  for addr in "${SHARD_HTTP[@]}"; do SUM=$((SUM + $(metric "$addr" innetd_readings_repeated_total))); done
  echo "$SUM"
}

window_points() { # points in the merged window the full path ranks over
  curl -fsS "http://$COORD_HTTP/v1/outliers?merge=full&window=1" \
    | grep -o '"window":\[.*\]' | grep -o '"seq":' | wc -l
}

# Poll until the cluster's merged answer is healthy, complete, and equal
# to the single-process reference.
expect_match() { # expect_match <label>
  local MERGED= SINGLE=
  for _ in $(seq 1 150); do
    MERGED=$(curl -fsS "http://$COORD_HTTP/v1/outliers" 2>/dev/null || true)
    SINGLE=$(curl -fsS "http://$SINGLE_HTTP/v1/outliers?sensor=1")
    if grep -q '"degraded":false' <<<"$MERGED" && grep -q '"shards_ok":3' <<<"$MERGED" \
       && [[ -n "$(outliers "$MERGED")" ]] \
       && [[ "$(outliers "$MERGED")" == "$(outliers "$SINGLE")" ]]; then
      echo "$1: merged == reference: $(outliers "$MERGED")"
      return 0
    fi
    sleep 0.1
  done
  echo "$1: merged answer never matched:" >&2
  echo "  merged: ${MERGED:-}" >&2
  echo "  single: ${SINGLE:-}" >&2
  return 1
}

echo "== start the single-process reference (never restarted)"
"$BINDIR/innetd" -http "$SINGLE_HTTP" "${DETFLAGS[@]}" &
SINGLE_PID=$!

echo "== start 3 durable shards (replicas=1: the WAL is the only copy)"
for i in 0 1 2; do start_shard "$i"; done

echo "== start the durable coordinator"
start_coord

echo "== wait for health"
wait_ok "$SINGLE_HTTP"
for addr in "${SHARD_HTTP[@]}"; do wait_ok "$addr"; done
wait_ok "$COORD_HTTP"

echo "== fill both sides with the same data"
FILL='{"readings":['
for ROUND in $(seq 0 8); do
  for S in 1 2 3 4 5 6; do
    FILL+="{\"sensor\":$S,\"at_ms\":$((60000 + ROUND * 60000)),\"values\":[20.$((S + ROUND))]},"
  done
done
FILL="${FILL%,}]}"
curl -fsS -X POST "http://$COORD_HTTP/v1/observations" -d "$FILL" >/dev/null
curl -fsS -X POST "http://$SINGLE_HTTP/v1/observations" -d "$FILL" >/dev/null

echo "== UDP-fire the outlier at both (sensor 9 has a stuck-at-rail fault)"
for LINE in "3 61000 20.35" "9 62000 55.3"; do
  echo "$LINE" > "/dev/udp/$HOST/$COORD_UDP_PORT"
  SENSOR=${LINE%% *}; REST=${LINE#* }; AT=${REST%% *}; VAL=${REST#* }
  curl -fsS -X POST "http://$SINGLE_HTTP/v1/observations" \
    -d "{\"readings\":[{\"sensor\":$SENSOR,\"at_ms\":$AT,\"values\":[$VAL]}]}" >/dev/null
done

expect_match "baseline"

echo "== every shard must be writing its WAL"
for addr in "${SHARD_HTTP[@]}"; do
  RECS=$(metric "$addr" innetd_wal_records_total)
  [[ -n "$RECS" && "$RECS" -gt 0 ]] || {
    echo "shard $addr: innetd_wal_records_total = '${RECS:-}' — not durable" >&2; exit 1; }
done
echo "all shards durable (wal_records > 0)"

echo "== rolling restart: SIGTERM + restart each shard in sequence"
for i in 0 1 2; do
  echo "-- restart shard $i"
  stop_pid "${SHARD_PIDS[$i]}"
  start_shard "$i"
  wait_ok "${SHARD_HTTP[$i]}"
  REPLAYED=$(metric "${SHARD_HTTP[$i]}" innetd_replayed_records)
  [[ -n "$REPLAYED" && "$REPLAYED" -gt 0 ]] || {
    echo "shard $i replayed '${REPLAYED:-}' records — warm restart did not replay" >&2; exit 1; }
  expect_match "after shard $i restart (replayed $REPLAYED)"
done

echo "== cold restart: stop the WHOLE cluster, coordinator first"
stop_pid "$COORD_PID"
for i in 0 1 2; do stop_pid "${SHARD_PIDS[$i]}"; done

echo "== bring it all back from disk"
for i in 0 1 2; do start_shard "$i"; done
start_coord
for addr in "${SHARD_HTTP[@]}"; do wait_ok "$addr"; done
wait_ok "$COORD_HTTP"

expect_match "after full cold restart"

echo "== fresh burst after the cold restart: new readings are new points"
BURST='{"readings":['
for S in 1 2 3 4 5 6; do
  BURST+="{\"sensor\":$S,\"at_ms\":580000,\"values\":[21.$S]},"
done
BURST+='{"sensor":9,"at_ms":581000,"values":[56.0]}]}'
curl -fsS -X POST "http://$COORD_HTTP/v1/observations" -d "$BURST" >/dev/null
curl -fsS -X POST "http://$SINGLE_HTTP/v1/observations" -d "$BURST" >/dev/null
expect_match "post-restart burst"

echo "== restart the coordinator mid-window and re-send the burst"
POINTS=$(window_points)
REPEATED=$(repeated)
stop_pid "$COORD_PID"
start_coord
wait_ok "$COORD_HTTP"
curl -fsS -X POST "http://$COORD_HTTP/v1/observations" -d "$BURST" >/dev/null
WANT=$((REPEATED + 7))
for _ in $(seq 1 100); do
  [[ "$(repeated)" -ge "$WANT" ]] && break
  sleep 0.1
done
[[ "$(repeated)" -ge "$WANT" ]] || { # a READINGS frame the coordinator retried adds more
  echo "shards counted $(repeated) repeats after the re-sent burst, want at least $WANT" >&2; exit 1; }
expect_match "re-sent burst after a coordinator restart"
[[ "$(window_points)" -eq "$POINTS" ]] || {
  echo "re-sent burst changed the merged window: $POINTS -> $(window_points) points" >&2; exit 1; }
echo "re-sent burst: $POINTS-point window unchanged, $(($(repeated) - REPEATED)) repeats counted"

echo "== clean shutdown"
stop_pid "$COORD_PID"; COORD_PID=0
for i in 0 1 2; do stop_pid "${SHARD_PIDS[$i]}"; SHARD_PIDS[$i]=0; done
stop_pid "$SINGLE_PID"; SINGLE_PID=0
echo "rolling restart smoke: OK"
