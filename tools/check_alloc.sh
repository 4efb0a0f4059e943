#!/usr/bin/env sh
# Allocation-regression smoke gate.  Runs each fixed reference cell,
# reads its minor_words_per_commit figure out of the proust-bench/v1
# report, and fails if any cell regressed more than the baseline's
# tolerance (default 10%) over tools/alloc_baseline.json, which lists
# the cells:
#
#   stm-map   t=1 u=0.1 o=16  the read-heavy hot path the log-structured
#                             read/write sets are tuned for;
#   eager-opt t=1 u=1   o=16  an update-only Proustian map: abstract-lock
#                             acquisition and the Chashmap per-key ops;
#   lazy-memo t=1 u=1   o=16  the same map under the lazy strategy: the
#                             memo replay log and its commit-time replay.
#
# The cells are single-threaded on purpose: no contention means no
# aborts, so words-per-commit is a deterministic property of the code
# path, not of the schedule.  Refresh one cell's baseline after a
# deliberate allocation change with:
#   tools/check_alloc.sh --update IMPL
set -eu
cd "$(dirname "$0")/.."

BASELINE=tools/alloc_baseline.json
OUT="${ALLOC_SMOKE_OUT:-/tmp/alloc_smoke}"

run_cell() {
  dune exec bin/proust_bench.exe -- \
    --impl "$1" -t 1 -u "$2" -o 16 --ops 30000 --trials 3 \
    --json "$OUT.$1.json" >/dev/null
}

python3 -c 'import json, sys
for c in json.load(open(sys.argv[1]))["cells"]: print(c["impl"], c["u"])' "$BASELINE" |
while read -r impl u; do run_cell "$impl" "$u"; done

python3 - "$BASELINE" "$OUT" "$@" <<'EOF'
import json, sys
path, out, args = sys.argv[1], sys.argv[2], sys.argv[3:]
base = json.load(open(path))
tol = base.get("tolerance_pct", 10)

def current(impl):
    return json.load(open(f"{out}.{impl}.json"))["cells"][0]["minor_words_per_commit"]

if args[:1] == ["--update"]:
    if not args[1:]:
        sys.exit("usage: tools/check_alloc.sh --update IMPL...")
    for impl in args[1:]:
        cur = current(impl)
        next(c for c in base["cells"] if c["impl"] == impl)["minor_words_per_commit"] = round(cur, 1)
        print(f"{impl}: baseline updated to {cur:.1f} minor words/commit")
    open(path, "w").write(json.dumps(base, indent=2) + "\n")
    sys.exit(0)

failed = False
for cell in base["cells"]:
    cur, ref = current(cell["impl"]), cell["minor_words_per_commit"]
    ok = cur <= ref * (1 + tol / 100)
    failed |= not ok
    print(f"{cell['impl']} t=1 u={cell['u']} o=16: minor words/commit baseline {ref:.1f}, current {cur:.1f} "
          f"(tolerance {tol}%) {'OK' if ok else 'FAIL'}")
if failed:
    print("FAIL: allocation per committed transaction regressed past tolerance")
    sys.exit(1)
print("OK")
EOF
