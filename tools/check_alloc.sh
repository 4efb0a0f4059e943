#!/usr/bin/env sh
# Allocation-regression smoke gate.  Runs each fixed reference cell,
# reads its minor_words_per_commit figure out of the proust-bench/v1
# report, and fails if any cell regressed more than the baseline's
# tolerance (default 10%) over tools/alloc_baseline.json, which lists
# the cells, keyed by impl and STM mode:
#
#   stm-map   lazy-lazy     t=1 u=0.1 o=16  the read-heavy hot path the
#                                           log-structured read/write
#                                           sets are tuned for;
#   eager-opt eager-lazy    t=1 u=1   o=16  an update-only Proustian map:
#                                           abstract-lock acquisition and
#                                           the Chashmap per-key ops
#                                           (encounter-time, so never
#                                           under lazy-lazy: Theorem 5.2);
#   lazy-memo lazy-lazy     t=1 u=1   o=16  the same map under the lazy
#                                           strategy: the memo replay log
#                                           and its commit-time replay;
#   stm-map   serial-commit t=1 u=1   o=16  group commit: at t=1 every
#                                           writing commit is a combiner
#                                           election;
#   lazy-snap lazy-lazy     t=1 u=1   o=16  the lazy snapshot trie map:
#                                           Ctrie shadow copies and the
#                                           persistent HAMT's path copies,
#                                           made once per put: commit
#                                           installs the shadow with one
#                                           root CAS, so a cell that
#                                           replays each put onto the
#                                           root again reads ~1.7x;
#   omap-snap multi-version t=1 u=1 o=16  the snapshot ordered map: one
#                                           B+-tree path copy per put
#                                           (a leaf's value array and
#                                           each level's child array)
#                                           and the root tvar's version
#                                           chain.
#
# The cells are single-threaded on purpose: no contention means no
# aborts, so words-per-commit is a deterministic property of the code
# path, not of the schedule.  Refresh one cell's baseline after a
# deliberate allocation change with:
#   tools/check_alloc.sh --update IMPL[:MODE]
# (MODE defaults to lazy-lazy, the bench's default mode).
set -eu
cd "$(dirname "$0")/.."

BASELINE=tools/alloc_baseline.json
OUT="${ALLOC_SMOKE_OUT:-/tmp/alloc_smoke}"

run_cell() {
  dune exec bin/proust_bench.exe -- \
    --impl "$1" --mode "$2" -t 1 -u "$3" -o 16 --ops 30000 --trials 3 \
    --json "$OUT.$1.$2.json" >/dev/null
}

python3 -c 'import json, sys
for c in json.load(open(sys.argv[1]))["cells"]: print(c["impl"], c["mode"], c["u"])' "$BASELINE" |
while read -r impl mode u; do run_cell "$impl" "$mode" "$u"; done

python3 - "$BASELINE" "$OUT" "$@" <<'EOF'
import json, sys
path, out, args = sys.argv[1], sys.argv[2], sys.argv[3:]
base = json.load(open(path))
tol = base.get("tolerance_pct", 10)

def current(cell):
    report = f"{out}.{cell['impl']}.{cell['mode']}.json"
    return json.load(open(report))["cells"][0]["minor_words_per_commit"]

if args[:1] == ["--update"]:
    if not args[1:]:
        sys.exit("usage: tools/check_alloc.sh --update IMPL[:MODE]...")
    for key in args[1:]:
        impl, _, mode = key.partition(":")
        mode = mode or "lazy-lazy"
        cell = next((c for c in base["cells"]
                     if c["impl"] == impl and c["mode"] == mode), None)
        if cell is None:
            sys.exit(f"no baseline cell {impl}:{mode}")
        cell["minor_words_per_commit"] = round(current(cell), 1)
        print(f"{impl}:{mode}: baseline updated to "
              f"{cell['minor_words_per_commit']:.1f} minor words/commit")
    open(path, "w").write(json.dumps(base, indent=2) + "\n")
    sys.exit(0)

failed = False
for cell in base["cells"]:
    cur, ref = current(cell), cell["minor_words_per_commit"]
    ok = cur <= ref * (1 + tol / 100)
    failed |= not ok
    print(f"{cell['impl']} {cell['mode']} t=1 u={cell['u']} o=16: minor words/commit "
          f"baseline {ref:.1f}, current {cur:.1f} (tolerance {tol}%) {'OK' if ok else 'FAIL'}")
if failed:
    print("FAIL: allocation per committed transaction regressed past tolerance")
    sys.exit(1)
print("OK")
EOF
