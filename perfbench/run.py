#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

The first form builds perfbench/main.exe with dune, runs one workload in
its own process and passes its output through; the last line is the
result object.  The second runs every workload named in BENCHMARK.json
untraced, one process each, prints every end-to-end metric with its
unit (the bounded ones from the result object, the unbounded ones from
the notes line), and exits non-zero if any correctness check failed.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# End-to-end figures a workload reports on its notes line without a
# bound (see README.md, "Metrics"), with their units.
UNBOUNDED = [
    ("txn_per_s", "1/s"),
    ("cpu_us_per_txn", "us"),
    ("txn_p99_us", "us"),
    ("intended_p50_us", "us"),
    ("intended_p99_us", "us"),
    ("heap_peak_mb", "MB"),
    ("log_bytes_per_txn", "bytes"),
    ("recovery_s", "s"),
]


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        return False
    return r.returncode == 0 and os.path.isfile(EXE)


def git_rev():
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_one(workload, seed, seconds, trace, rev, echo=True):
    """Run one workload; return (exit code, parsed result or None, notes)."""
    cmd = [
        EXE,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--git-rev", rev,
    ]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s timed out" % workload)
        return 124, None, {}
    lines = r.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    notes = {}
    for line in lines:
        if line.startswith("notes "):
            try:
                notes = json.loads(line[len("notes "):])
            except ValueError:
                pass
    try:
        return r.returncode, json.loads(lines[-1]), notes
    except (IndexError, ValueError):
        return r.returncode or 1, None, notes


def expected_names(spec, trace):
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def single(args, spec, rev):
    rc, result, _ = run_one(args.workload, args.seed, args.seconds, args.trace, rev)
    if result is None:
        log("no result from %s" % args.workload)
        return rc or 1
    names = set(result.get("metrics", {}))
    want = expected_names(spec, args.trace)
    if names != want:
        log("metric names differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(want - names), sorted(names - want)))
        return 3
    print(json.dumps(result))
    return rc


def run_all(args, spec, rev):
    ok = True
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for w in spec["workloads"]:
        name = w["name"]
        rc, result, notes = run_one(name, args.seed, seconds, 0, rev, echo=False)
        if result is None or rc != 0 or not result["correct"]:
            print("%-18s FAILED (exit %d)" % (name, rc))
            ok = False
            continue
        print("%-18s attempted=%d failed=%d" % (name, result["attempted"], result["failed"]))
        for m, v in result["metrics"].items():
            print("  %-20s %16.4f %s" % (m, v["value"], units.get(m, v["unit"])))
        for m, unit in UNBOUNDED:
            v = notes.get(m)
            if isinstance(v, dict):
                v = v.get("value_us")
            if isinstance(v, (int, float)):
                print("  %-20s %16.4f %s (unbounded)" % (m, v, unit))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description="Build and run the repository benchmark.")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true", help="run every workload untraced")
    args = p.parse_args()
    if not args.all and args.workload is None:
        p.error("--workload or --all is required")
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log("cannot read BENCHMARK.json: %s" % e)
        return 2
    if not build():
        return 2
    rev = git_rev()
    if args.all:
        return run_all(args, spec, rev)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return single(args, spec, rev)


if __name__ == "__main__":
    sys.exit(main())
