#!/usr/bin/env bash
# bench_pair.sh BASE HEAD — CI's benchmark gate. Runs every
# BENCHMARK.json workload for 3 s in a worktree of each commit, in the
# order base, head, head, base, and fails when the mean of HEAD's two
# runs is worse than the mean of BASE's by more than the BENCHMARK.json
# bound on any end-to-end metric — alloc_kb_per_op (repeats far inside
# its 2 %), latency_p50_ms or setup_s (25 % each: only a gross
# slowdown) — or when any operation of any run failed. The ABBA order
# cancels a host's drift that is linear over the four runs: a p50 or a
# set-up time that wanders by more than the bound within minutes would
# otherwise fail whichever side ran second. A claimed gain
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
  base1=$(run base "$w")
  head1=$(run head "$w")
  head2=$(run head "$w")
  base2=$(run base "$w")
  echo "$w base: $base1"
  echo "$w head: $head1"
  echo "$w head: $head2"
  echo "$w base: $base2"
  verdict=$(jq -rn --argjson b1 "$base1" --argjson h1 "$head1" --argjson h2 "$head2" --argjson b2 "$base2" \
    --slurpfile spec "$SPEC" '
    [ (select([$b1, $h1, $h2, $b2] | any(.failed > 0 or (.correct | not))) | "failed operations"),
      ( ("alloc_kb_per_op", "latency_p50_ms", "setup_s") as $m
        | ($spec[0].end_to_end[] | select(.name == $m) | .bound) as $bound
        | (($b1.metrics[$m].value + $b2.metrics[$m].value) / 2) as $old
        | (($h1.metrics[$m].value + $h2.metrics[$m].value) / 2) as $new
        | select($new > $old * (1 + $bound))
        | "\($m) mean \($old) -> \($new) is beyond +\($bound * 100) %" )
    ] | join("; ")')
  if [ -n "$verdict" ]; then echo "FAIL $w: $verdict" >&2; fail=1; fi
done
[ "$fail" = 0 ] && echo "PASS: HEAD within the BENCHMARK.json bounds of BASE on every workload"
exit "$fail"
