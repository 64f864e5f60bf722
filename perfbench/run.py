#!/usr/bin/env python3
"""Build and run the lbc repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--tiny]

Run it from the root of an lbc checkout.  It builds perfbench/lbcbench.exe
from source with dune into .bench_build/, runs it with its scratch files
(real-backend devices, span dumps) under .bench_build/run/, and passes its
output through: the last line of standard output is one JSON result.  When
the build or the run fails it exits non-zero and prints no result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "lbcbench.exe")
RUN_DIR = os.path.join(ROOT, BUILD_DIR, "run")
WORKLOADS = ("oo7-sim", "oo7-real", "hotlock", "restart")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it.  Returns (exit code or None on timeout, stdout)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes (smoke test)")
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    # The dune cache lives outside the checkout; keep every build output in it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--display", "quiet",
         "./perfbench/lbcbench.exe"],
        BUILD_TIMEOUT_S, cwd=ROOT, env=env, stdout=sys.stderr)
    if code != 0:
        print("run.py: build failed" if code is not None else
              "run.py: build timed out", file=sys.stderr)
        return 1

    tmp = os.path.join(RUN_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.tiny:
        cmd.append("--tiny")
    code, out = run(cmd, RUN_TIMEOUT_S, cwd=RUN_DIR,
                    env=dict(env, TMPDIR=tmp), stdout=subprocess.PIPE, text=True)
    if code != 0:
        if out:
            sys.stderr.write(out)
        print("run.py: benchmark timed out" if code is None else
              f"run.py: benchmark exited with {code}", file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = isinstance(result, dict) and set(result) == RESULT_KEYS
    except ValueError:
        ok = False
    if not ok:
        sys.stderr.write(out)
        print("run.py: no result line", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
