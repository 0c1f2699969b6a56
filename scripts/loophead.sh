#!/usr/bin/env bash
# loophead.sh BASE HEAD — prints the machine code of the vm's dispatch
# loop, jit.(*Frame).run, as built from each of two commits, and the
# diff between them: the check that a change to the vm left run's loop
# head (its spills and reloads around the dispatch) as it was. Each
# commit is extracted with git archive into a temporary directory and
# built there (./cmd/pbrun, which links the vm); nothing is written into
# the checkout. Addresses are normalised to hex offsets from the
# function's entry, in the listing and in jump operands. The diff
# compares instructions alone, every address written L (jump targets and
# IP-relative operands): source positions, encodings and offsets move
# with unrelated edits, with code added elsewhere in run and with
# placement, while a new spill or reload shows as a line of its own.
# Informational: differences do not fail it.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 BASE HEAD" >&2; exit 2; }

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

# normalise reads go tool objdump output for one function and prints
# one line per instruction: offset, source position, instruction.
normalise() {
  local start="" pos addr asm off
  while IFS=$'\t' read -r pos addr _ asm; do
    [[ $addr == 0x* ]] || continue
    [ -n "$start" ] || start=$((addr))
    off=$((addr - start))
    # An operand of six or more hex digits is an address: a jump target.
    while [[ $asm =~ ^(.*[^0-9a-fx])0x([0-9a-f]{6,})(.*)$ ]]; do
      asm="${BASH_REMATCH[1]}.+$(printf '%x' $((16#${BASH_REMATCH[2]} - start)))${BASH_REMATCH[3]}"
    done
    printf '%5x\t%s\t%s\n' "$off" "${pos// /}" "$asm"
  done
}

for side in base head; do
  if [ "$side" = base ]; then rev=$1; else rev=$2; fi
  mkdir -p "$DIR/$side"
  git archive "$rev" | tar -x -C "$DIR/$side"
  (cd "$DIR/$side" && go build -o "$DIR/$side.bin" ./cmd/pbrun)
  go tool objdump -s 'jit.\(\*Frame\).run$' "$DIR/$side.bin" | normalise > "$DIR/$side.txt"
  echo "== $side $rev: jit.(*Frame).run, $(wc -l < "$DIR/$side.txt") instructions"
  cat "$DIR/$side.txt"
  cut -f3 "$DIR/$side.txt" | sed -E 's/\.\+[0-9a-f]+/L/g; s/0x[0-9a-f]+\(IP\)/L(IP)/g' > "$DIR/$side.asm"
done

echo "== diff base head (instructions, every address an L)"
if diff -u "$DIR/base.asm" "$DIR/head.asm"; then
  echo "no difference"
fi
