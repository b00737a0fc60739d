#!/usr/bin/env bash
# Usage: check-run-names.sh PATTERN PKG...
#
# `go test -run` and `-fuzz` pass silently when a name matches nothing — a
# renamed, moved or deleted test just stops running. This fails unless every
# |-separated alternative in PATTERN matches a test, fuzz target, benchmark
# or example that `go test -list` finds in the named packages.
set -euo pipefail
pattern=$1
shift
listed=$(go test -list . "$@" | grep -E '^(Test|Fuzz|Benchmark|Example)')
missing=""
for name in $(echo "$pattern" | tr '|' ' '); do
  echo "$listed" | grep -qE "$name" || missing="$missing $name"
done
if [ -n "$missing" ]; then
  echo "names that match no test in $*:$missing"
  exit 1
fi
