#!/usr/bin/env bash
# bench_pair.sh BASE HEAD — CI's benchmark gate. Runs every
# BENCHMARK.json workload for 3 s in a worktree of each commit and fails
# when HEAD is worse than BASE by more than the BENCHMARK.json bound on
# alloc_kb_per_op (repeats far inside its 2 %) or latency_p50_ms (25 %:
# only a gross slowdown), or when any operation failed. A claimed gain
# needs the paired protocol in benchmark/README.md, not this gate.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 BASE HEAD" >&2; exit 2; }

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"; git worktree prune' EXIT
git worktree add --quiet --detach "$DIR/base" "$1"
git worktree add --quiet --detach "$DIR/head" "$2"
SPEC="$DIR/head/BENCHMARK.json"

# run SIDE WORKLOAD prints the benchmark's last line, the JSON summary.
run() {
  (cd "$DIR/$1" && bash benchmark/run.sh --workload "$2" --seed 1 --seconds 3 --trace 0 | tail -n 1)
}

fail=0
for w in $(jq -r '.workloads[].name' "$SPEC"); do
  base=$(run base "$w")
  head=$(run head "$w")
  echo "$w base: $base"
  echo "$w head: $head"
  verdict=$(jq -rn --argjson b "$base" --argjson h "$head" --slurpfile spec "$SPEC" '
    [ (select($b.failed + $h.failed > 0 or ($b.correct and $h.correct | not)) | "failed operations"),
      ( ("alloc_kb_per_op", "latency_p50_ms") as $m
        | ($spec[0].end_to_end[] | select(.name == $m) | .bound) as $bound
        | $b.metrics[$m].value as $old | $h.metrics[$m].value as $new
        | select($new > $old * (1 + $bound))
        | "\($m) \($old) -> \($new) is beyond +\($bound * 100) %" )
    ] | join("; ")')
  if [ -n "$verdict" ]; then echo "FAIL $w: $verdict" >&2; fail=1; fi
done
[ "$fail" = 0 ] && echo "PASS: HEAD within the BENCHMARK.json bounds of BASE on every workload"
exit "$fail"
