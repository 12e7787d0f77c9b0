#!/usr/bin/env bash
# testonly.sh — candidates for "code only its own tests keep alive": every
# func or method declared in non-test Go (outside benchmark/ and testdata/)
# whose name appears nowhere else in non-test code. Report only, except
# that a name nothing at all refers to (tests=0 bench=0: dead exported
# code) makes the exit status 1.
#
# The match is by NAME, on identifier tokens, with // comments cut off:
# nontest counts the name's tokens in non-test code (declarations included;
# a name is listed when every one of them is a declaration), tests those in
# _test.go files, bench those under benchmark/. So two things with one name
# hide each other, a method reached only through an interface (String,
# Error, ServeHTTP) or by the runtime (main, init — skipped) is listed
# although it is used, and a name inside a string literal counts as a use.
# Read the list as where to look, not as what to delete: tests=0 bench=0 is
# dead code, bench>0 is held by the benchmark, the rest by tests alone.
#
# Usage: scripts/testonly.sh   (from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

# tokens FIND-ARGS... — "count name" for every identifier in the files find
# selects, // comments removed.
tokens() {
  find . -name '*.go' ! -path '*/testdata/*' "$@" -print0 | xargs -0 -r cat |
    sed 's://.*$::' | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c
}

nontest=(! -name '*_test.go' ! -path './benchmark/*')
declared=$(find . -name '*.go' ! -path '*/testdata/*' "${nontest[@]}" -print0 | xargs -0 -r cat |
  sed -nE 's/^func (\([^)]*\) )?([A-Za-z_][A-Za-z0-9_]*).*/\2/p' | grep -vxE 'main|init' | sort | uniq -c)

awk '
  FILENAME == ARGV[1] { decl[$2] = $1; next }
  FILENAME == ARGV[2] { nontest[$2] = $1; next }
  FILENAME == ARGV[3] { tests[$2] = $1; next }
  { bench[$2] = $1 }
  END {
    for (name in decl)
      if (nontest[name] == decl[name]) {
        printf "%s nontest=%d tests=%d bench=%d\n", name, nontest[name], tests[name], bench[name]
        if (tests[name] + bench[name] == 0) dead = 1
      }
    exit dead
  }
' <(echo "$declared") <(tokens "${nontest[@]}") \
  <(tokens -name '*_test.go' ! -path './benchmark/*') <(tokens -path './benchmark/*') | sort
