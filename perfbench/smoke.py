#!/usr/bin/env python3
"""Smoke test of the benchmark.

    python3 perfbench/smoke.py        (from the root of an lbc checkout)

Runs all four workloads at tiny sizes, untraced and traced, on two
seeds: the two BENCHMARK.json judges, and hotlock and oo7-real, which it
leaves out as unsteady.  Each run must print a correct result with at least
one op attempted, zero ops failed, its seed echoed, and exactly the metrics
(with the units) BENCHMARK.json lists for that mode.  Exits non-zero if any
run does not.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("oo7-sim", "oo7-real", "hotlock", "restart")


def check(workload, trace, seed, expected):
    p = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        return [f"exit {p.returncode}: {p.stderr.strip()[-400:]}"]
    lines = p.stdout.strip().split("\n")
    r = json.loads(lines[-1])
    problems = []
    if not r["correct"]:
        problems.append("correct is false")
    if r["attempted"] < 1 or r["failed"] != 0:
        problems.append(f"{r['failed']} of {r['attempted']} ops failed")
    if not any(l.startswith(f"workload {workload} seed {seed} ") for l in lines):
        problems.append("seed not echoed")
    got = {name: m["unit"] for name, m in r["metrics"].items()}
    for name in sorted(set(expected) - set(got)):
        problems.append(f"missing {name}")
    for name in sorted(set(got) - set(expected)):
        problems.append(f"unexpected {name}")
    for name in sorted(set(got) & set(expected)):
        if got[name] != expected[name]:
            problems.append(f"{name} in {got[name]}, expected {expected[name]}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            for seed in (1, 2):
                problems = check(workload, trace, seed, expected[trace])
                failures += bool(problems)
                print("FAIL" if problems else "PASS", workload,
                      f"trace={trace} seed={seed}", "; ".join(problems),
                      flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
