#!/usr/bin/env bash
# coldwarm_smoke.sh — end-to-end smoke test of pbserve warm-start.
#
# Boots pbserve against an empty store directory, runs a jit-lowerable
# DSL program (populating the artifact store), kills the node with
# SIGTERM, restarts it against the same directories, and asserts:
#   1. the first boot's one request committed exactly one artifact
#      pack to disk and constructed at least one execution plan,
#   2. the second boot served the same request entirely from the disk
#      tier (disk hits, zero disk misses, zero fresh jit compiles, and
#      zero plan constructions — every plan rehydrated from its
#      persisted descriptor) and saved nothing,
#   3. both boots shut down cleanly on SIGTERM.
#
# Exits non-zero on any failure. Run from the repository root.
set -euo pipefail

PORT=8621
URL="http://127.0.0.1:$PORT"
DIR=$(mktemp -d)
trap 'jobs -p | xargs -r kill 2>/dev/null || true; rm -rf "$DIR"' EXIT

echo "== building =="
go build -o "$DIR/pbserve" ./cmd/pbserve

start_node() {
  "$DIR/pbserve" -addr ":$PORT" -dsl testdata/heat1d.pbcc \
    -store "$DIR/store.json" -workers 2 \
    >"$DIR/$1.log" 2>&1 &
  PID=$!
  for _ in $(seq 1 100); do
    if curl -sf "$URL/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "node never became healthy" >&2
  tail -5 "$DIR/$1.log" >&2
  return 1
}

run_heat1d() {
  curl -sf "$URL/v1/run" -d '{"program":"Heat1D","n":32,"seed":5}' >/dev/null
}

stop_node() {
  kill -TERM "$PID"
  if ! wait "$PID"; then
    echo "FAIL: node exited non-zero" >&2; exit 1
  fi
  if ! grep -q "stopped cleanly" "$DIR/$1.log"; then
    echo "FAIL: node did not stop cleanly" >&2
    tail -5 "$DIR/$1.log" >&2
    exit 1
  fi
}

echo "== cold boot: run, persist, shut down =="
start_node cold
run_heat1d
curl -s "$URL/v1/stats" >"$DIR/cold-stats.json"
python3 - "$DIR/cold-stats.json" <<'EOF'
import json, sys
st = json.load(open(sys.argv[1]))
saves = st["artifacts"]["disk"]["saves"]
plan = st["artifacts"]["plan"]
fails = []
if saves != 1:
    fails.append("cold run's one request committed %d packs, want exactly 1" % saves)
if plan["builds"] < 1:
    fails.append("cold run constructed no execution plans: %r" % plan)
if fails:
    for f in fails:
        print("FAIL:", f, file=sys.stderr)
    sys.exit(1)
print("cold boot: committed %d pack of %d artifacts, built %d plans"
      % (saves, st["artifacts"]["disk"]["entries"], plan["builds"]))
EOF
stop_node cold

echo "== warm boot: same dirs, same request =="
start_node warm
if ! grep -q "artifact store .* holds" "$DIR/warm.log"; then
  echo "FAIL: warm boot did not report a populated artifact store" >&2
  tail -5 "$DIR/warm.log" >&2
  exit 1
fi
run_heat1d
curl -s "$URL/v1/stats" >"$DIR/warm-stats.json"
python3 - "$DIR/warm-stats.json" <<'EOF'
import json, sys
st = json.load(open(sys.argv[1]))
disk = st["artifacts"]["disk"]
compiled = st["engines"]["compiled"]
plan = st["artifacts"]["plan"]
fails = []
if disk["hits"] < 1:
    fails.append("no disk hits on the warm boot: %r" % disk)
if disk["misses"] != 0:
    fails.append("%d disk misses on the warm boot" % disk["misses"])
if compiled.get("jit-warm", 0) < 1:
    fails.append("no rules loaded warm: %r" % compiled)
if compiled.get("jit", 0) != 0:
    fails.append("warm boot recompiled %d rules from source" % compiled["jit"])
if plan["warm_loads"] < 1:
    fails.append("no plans warm-loaded on the warm boot: %r" % plan)
if plan["builds"] != 0:
    fails.append("warm boot constructed %d plans from scratch" % plan["builds"])
if disk["saves"] != 0:
    fails.append("warm boot saved %d packs" % disk["saves"])
if fails:
    for f in fails:
        print("FAIL:", f, file=sys.stderr)
    sys.exit(1)
print("warm boot: %d disk hits, 0 misses, %d rules loaded warm, 0 compiled, "
      "%d plans rehydrated, 0 built, 0 saved" % (disk["hits"], compiled["jit-warm"], plan["warm_loads"]))
EOF
stop_node warm

echo "PASS: restart served from persisted artifacts without recompiling or replanning"
