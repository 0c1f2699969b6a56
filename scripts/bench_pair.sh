#!/usr/bin/env bash
# bench_pair.sh BASE HEAD — CI's benchmark gate. Runs every
# BENCHMARK.json workload for 3 s in a worktree of each commit, three
# times a side in the order base, head, head, base, base, head, and
# fails when HEAD is worse than BASE by more than the BENCHMARK.json
# bound on any end-to-end metric — alloc_kb_per_op compared on each
# side's mean (it repeats far inside its 2 %), latency_p50_ms and
# setup_s on each side's median (25 % each: only a gross slowdown) — or
# when any operation of any run failed. The median lets one slow run
# of either side pass without failing a workload, which a mean of two
# runs did not; the ABBA-BAAB order cancels a host's drift that is
# linear over the six runs, so a p50 or a set-up time that wanders
# within minutes does not fail whichever side ran second. A claimed
# gain needs the paired protocol in benchmark/README.md, not this gate.
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
  runs="[]"
  for side in base head head base base head; do
    r=$(run "$side" "$w")
    echo "$w $side: $r"
    runs=$(jq -c --arg side "$side" --argjson r "$r" '. + [$r + {side: $side}]' <<<"$runs")
  done
  verdict=$(jq -rn --argjson runs "$runs" --slurpfile spec "$SPEC" '
    def side($s): [$runs[] | select(.side == $s)];
    def mean: add / length;
    def median: sort | .[length / 2 | floor];
    [ (select($runs | any(.failed > 0 or (.correct | not))) | "failed operations"),
      ( ("alloc_kb_per_op", "latency_p50_ms", "setup_s") as $m
        | ($spec[0].end_to_end[] | select(.name == $m) | .bound) as $bound
        | (if $m == "alloc_kb_per_op" then "mean" else "median" end) as $stat
        | [side("base", "head") | [.[].metrics[$m].value] | if $stat == "mean" then mean else median end] as [$old, $new]
        | select($new > $old * (1 + $bound))
        | "\($m) \($stat) \($old) -> \($new) is beyond +\($bound * 100) %" )
    ] | join("; ")')
  if [ -n "$verdict" ]; then echo "FAIL $w: $verdict" >&2; fail=1; fi
done
[ "$fail" = 0 ] && echo "PASS: HEAD within the BENCHMARK.json bounds of BASE on every workload"
exit "$fail"
