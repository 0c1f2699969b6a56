#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end smoke test of pbserve cluster mode.
#
# Starts three pbserve nodes on loopback as one cluster, drives load at
# a single node with curl, and asserts:
#   1. the cluster forwarded requests (sharding is live),
#   2. a config tuned on one node replicated to the others,
#   3. every node shuts down cleanly on SIGTERM.
#
# Exits non-zero on any failure. Run from the repository root.
set -euo pipefail

PORT1=8611 PORT2=8612 PORT3=8613
A="http://127.0.0.1:$PORT1" B="http://127.0.0.1:$PORT2" C="http://127.0.0.1:$PORT3"
PEERS="$A,$B,$C"
DIR=$(mktemp -d)
trap 'jobs -p | xargs -r kill 2>/dev/null || true; rm -rf "$DIR"' EXIT

echo "== building =="
go build -o "$DIR/pbserve" ./cmd/pbserve

echo "== starting 3 nodes =="
PORTS=("$PORT1" "$PORT2" "$PORT3")
ADDRS=("$A" "$B" "$C")
PIDS=()
for i in 0 1 2; do
  "$DIR/pbserve" -addr ":${PORTS[$i]}" -self "${ADDRS[$i]}" -peers "$PEERS" \
    -store "$DIR/n$((i + 1)).json" -workers 2 -replicate 500ms \
    >"$DIR/n$((i + 1)).log" 2>&1 &
  PIDS+=("$!")
done

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -sf "$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "node $1 never became healthy" >&2
  return 1
}
for n in "$A" "$B" "$C"; do wait_healthy "$n"; done
echo "all nodes healthy"

echo "== driving load at node 1 only =="
# Eight size buckets are eight shard keys, so "forwarded >= 1" below
# does not rest on how any one key hashes.
failed=0
for n in 256 512 1024 2048 4096 8192 16384 32768; do
  for seed in 1 2 3; do
    curl -sf "$A/v1/run" -d "{\"program\":\"sort\",\"n\":$n,\"seed\":$seed}" >/dev/null \
      || failed=$((failed + 1))
  done
done
if [ "$failed" -gt 0 ]; then
  echo "FAIL: $failed of 24 requests failed" >&2; exit 1
fi

# With 3 nodes, ~2/3 of shard keys belong to peers of node 1, so load
# sent only to node 1 over eight keys must have been forwarded.
fwd=$(curl -s "$A/v1/stats" | python3 -c "import json,sys;print(json.load(sys.stdin)['cluster']['forwarded'])")
echo "node 1 forwarded: $fwd"
if [ "$fwd" -lt 1 ]; then
  echo "FAIL: no requests were forwarded" >&2; exit 1
fi

echo "== checking config replication =="
# Tune on node 2, then wait for the entry to appear on nodes 1 and 3.
curl -sf "$B/v1/tune" -d '{"program":"sort","n":4096,"wait":true}' >/dev/null
replicated() {
  curl -s "$1/v1/configs?program=sort&n=4096" \
    | python3 -c "import json,sys;d=json.load(sys.stdin);print(1 if d.get('lookup',{}).get('found') else 0)"
}
deadline=$((SECONDS + 15))
until [ "$(replicated "$A")" = 1 ] && [ "$(replicated "$C")" = 1 ]; do
  if [ "$SECONDS" -ge "$deadline" ]; then
    echo "FAIL: tuned config never replicated to peers" >&2
    for f in "$DIR"/n*.log; do echo "--- $f"; tail -5 "$f"; done >&2
    exit 1
  fi
  sleep 0.25
done
echo "tuned config visible on all nodes"

echo "== clean shutdown =="
kill -TERM "${PIDS[@]}"
fail=0
for i in 0 1 2; do
  if ! wait "${PIDS[$i]}"; then fail=1; fi
  if ! grep -q "stopped cleanly" "$DIR/n$((i + 1)).log"; then
    echo "FAIL: node $((i + 1)) did not stop cleanly" >&2
    tail -5 "$DIR/n$((i + 1)).log" >&2
    fail=1
  fi
done
[ "$fail" = 0 ] || exit 1

echo "PASS: forwarding, replication, and shutdown all verified"
