#!/usr/bin/env bash
# loc.sh — the ROADMAP's code-size count: lines of non-test Go outside
# benchmark/ and outside testdata/ (analyzer exemplars are test inputs),
# per top-level package and in total. Report only, unless a
# budget is given: then a total above it makes the exit status 1.
#
# Usage: scripts/loc.sh [BUDGET]   (from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

# count FIND-ARGS... — lines in the non-test .go files find selects.
count() {
  find "$@" -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' -print0 | xargs -0 -r cat | wc -l
}

printf '%7d  %s\n' "$(count . -maxdepth 1)" "(root package)"
for dir in cmd/* examples/* internal/*; do
  printf '%7d  %s\n' "$(count "./$dir")" "$dir"
done
total=$(count .)
printf '%7d  total\n' "$total"
[ "$total" -le "${1:-$total}" ]
