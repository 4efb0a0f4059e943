#!/usr/bin/env sh
# Module census gate.  DESIGN.md's "Module census" table must have one
# row per lib/*/*.ml naming what the module serves, with verdict
# `keep`; this fails when a module has no row, when a row names a file
# that does not exist, or when a row's verdict is anything but `keep`
# (a module that serves no claim is deleted, not listed).  Runs from
# any directory inside the repo; exits nonzero listing the offending
# paths.
set -eu
cd "$(dirname "$0")/.."

table=$(awk '
  /^## Module census/ { on = 1; next }
  on && /^## / { exit }
  on && /^\| `lib\/[^`]*\.ml` \|/ {
    split($0, f, "`")
    n = split($0, c, "|")
    v = c[n - 1]
    gsub(/^ +| +$/, "", v)
    print f[2], v
  }
' DESIGN.md | sort)
rows=$(printf '%s\n' "$table" | cut -d' ' -f1)

if [ -z "$rows" ]; then
  echo "no Module census table in DESIGN.md"
  exit 1
fi

fail=0
for f in lib/*/*.ml; do
  if ! printf '%s\n' "$rows" | grep -qxF "$f"; then
    echo "no census row: $f"
    fail=1
  fi
done
for f in $rows; do
  if [ ! -f "$f" ]; then
    echo "census row names a missing file: $f"
    fail=1
  fi
done
not_kept=$(printf '%s\n' "$table" | awk '{
  f = $1; sub(/^[^ ]+ /, "")
  if ($0 != "keep") print "census row is not keep: " f " (" $0 ")"
}')
if [ -n "$not_kept" ]; then
  echo "$not_kept"
  fail=1
fi
dups=$(printf '%s\n' "$rows" | uniq -d)
if [ -n "$dups" ]; then
  echo "duplicate census rows: $dups"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "census check failed"
  exit 1
fi
echo "census check passed ($(printf '%s\n' "$rows" | wc -l | tr -d ' ') modules)"
