#!/usr/bin/env bash
# pbserve_smoke.sh — end-to-end smoke test of one pbserve node.
#
# Builds pbserve, starts it on loopback with a fresh store file, and
# asserts:
#   1. 24 /v1/run requests over eight size buckets all succeed, and
#      /v1/stats counts each as admitted and completed once, with none
#      failed or shed,
#   2. a /v1/tune with wait:true succeeds,
#   3. the /v1/configs lookup finds the tuned entry,
#   4. SIGTERM makes the process exit 0 and log "stopped cleanly",
#   5. the store file it leaves holds the tuned entry.
#
# Exits non-zero on any failure. Run from the repository root.
set -euo pipefail

PORT=8611
A="http://127.0.0.1:$PORT"
TUNE_N=1024
DIR=$(mktemp -d)
trap 'jobs -p | xargs -r kill 2>/dev/null || true; rm -rf "$DIR"' EXIT

echo "== building =="
go build -o "$DIR/pbserve" ./cmd/pbserve

echo "== starting one node =="
"$DIR/pbserve" -addr "127.0.0.1:$PORT" -store "$DIR/store.json" -workers 2 \
  >"$DIR/node.log" 2>&1 &
PID=$!

healthy=0
for _ in $(seq 1 100); do
  if curl -sf "$A/healthz" >/dev/null 2>&1; then healthy=1; break; fi
  sleep 0.1
done
if [ "$healthy" = 0 ]; then
  echo "FAIL: node never became healthy" >&2; cat "$DIR/node.log" >&2; exit 1
fi
echo "node healthy"

echo "== 24 runs =="
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
echo "24 of 24 runs succeeded"

counts=$(curl -sf "$A/v1/stats" \
  | python3 -c "import json,sys;r=json.load(sys.stdin)['requests'];print(r['admitted'],r['completed'],r['failed'],r['shed'])") || {
  echo "FAIL: /v1/stats failed" >&2; exit 1
}
if [ "$counts" != "24 24 0 0" ]; then
  echo "FAIL: /v1/stats admitted, completed, failed, shed = $counts, want 24 24 0 0" >&2; exit 1
fi
echo "each run executed once (admitted, completed, failed, shed = $counts)"

echo "== tuning =="
tune=$(curl -sf "$A/v1/tune" -d "{\"program\":\"sort\",\"n\":$TUNE_N,\"max\":$TUNE_N,\"wait\":true}") || {
  echo "FAIL: /v1/tune wait:true failed" >&2; exit 1
}
key=$(printf '%s' "$tune" | python3 -c "import json,sys;d=json.load(sys.stdin);print(d['config'] if d.get('status')=='done' else '')")
if [ -z "$key" ]; then
  echo "FAIL: unexpected tune reply: $tune" >&2; exit 1
fi
echo "tuned $key"

matched=$(curl -sf "$A/v1/configs?program=sort&n=$TUNE_N" \
  | python3 -c "import json,sys;l=json.load(sys.stdin).get('lookup',{});print(l.get('matched_key','') if l.get('found') else '')")
if [ "$matched" != "$key" ]; then
  echo "FAIL: lookup matched '$matched', want '$key'" >&2; exit 1
fi
echo "lookup finds $key"

echo "== clean shutdown =="
kill -TERM "$PID"
status=0
wait "$PID" || status=$?
if [ "$status" != 0 ]; then
  echo "FAIL: pbserve exited $status after SIGTERM" >&2; tail -5 "$DIR/node.log" >&2; exit 1
fi
if ! grep -q "stopped cleanly" "$DIR/node.log"; then
  echo "FAIL: node did not log a clean stop" >&2; tail -5 "$DIR/node.log" >&2; exit 1
fi

stored=$(python3 -c "
import json,sys
key=sys.argv[2]
for e in json.load(open(sys.argv[1]))['entries']:
    if '%s/b%d/w%d' % (e['program'], e['bucket'], e['workers']) == key:
        print(1)
        break
else:
    print(0)
" "$DIR/store.json" "$key")
if [ "$stored" != 1 ]; then
  echo "FAIL: store file does not hold $key" >&2; exit 1
fi
echo "store file holds $key"

echo "PASS: runs, tuning, lookup, shutdown and store durability all verified"
