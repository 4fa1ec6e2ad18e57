"""knotmut benchmark: one command for the workloads in BENCHMARK.json.

    python3 perfbench/run.py --workload mutant-compare --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each workload runs in a fresh, single-
threaded Python process with PYTHONHASHSEED fixed, importing knotmut from
`src/`.  With `--trace 0` the last line of standard output is a JSON
object with the end-to-end metrics; with `--trace 1` it holds the
per-layer metrics of one traced pass instead.  The exit code is non-zero
when any output check fails.

    python3 perfbench/run.py --selfcheck --seed 1

runs every workload traced twice and verifies that every count metric
repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("mutant-compare", "satellites", "cover-groups")
CHILD_TIMEOUT_S = 170
COUNT_SUFFIXES = (".calls", ".crossings_in", ".subgroups", ".found",
                  ".gens_out", ".letters_out", ".limited", ".failed")


def run_child(workload: str, seed: int, seconds: float, trace: int,
              echo: bool = True) -> tuple[int, dict | None]:
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join((SRC, HERE)))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, result


def selfcheck(seed: int) -> int:
    """Two traced runs per workload; count metrics must repeat exactly."""
    status = 0
    for w in WORKLOADS:
        runs = []
        for _ in range(2):
            code, res = run_child(w, seed, 1, 1, echo=False)
            if code != 0 or res is None:
                print(f"{w}: traced run failed (exit {code})")
                return 1
            runs.append(res["metrics"])
        counts = sorted(k for k in runs[0] if k.endswith(COUNT_SUFFIXES))
        differ = [k for k in counts if runs[0][k] != runs[1][k]]
        for k in counts:
            print(f"{w:<15} {k:<46} {runs[0][k]['value']:>12} "
                  f"{runs[1][k]['value']:>12}")
        if differ:
            print(f"{w}: counts differ between traced runs: {differ}")
            status = 1
        else:
            print(f"{w}: all {len(counts)} count metrics repeat exactly")
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "knotmut", "__init__.py")):
        print(f"knotmut sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck(args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    code, result = run_child(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
