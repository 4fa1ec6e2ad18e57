"""Runs one workload in this process and prints its metrics.

Started by `run.py` in a fresh interpreter with PYTHONHASHSEED fixed; see
`run.py` for the arguments.  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

import workloads
from knotmut import skein2
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 7
# Set-ups timed together per sample, so that a sample takes 20 ms or more:
# the satellites set-up only glues a few small diagrams (under 1 ms).
SETUP_BATCH = {"mutant-compare": 1, "satellites": 25, "cover-groups": 1}
TAIL_BEYOND = 10   # attempts that must lie beyond the reported tail percentile
MIN_PASSES = 3
# A pass's time at the reference speed, per workload.  A run makes
# --seconds / PASS_S passes (at least MIN_PASSES), so that the pass count
# depends on the arguments only, never on how fast the machine runs.
PASS_S = {"mutant-compare": 12.0, "satellites": 9.5, "cover-groups": 7.0}

# Times are reported at a fixed reference speed.  The speed of a shared
# machine drifts (by 60% within minutes where this benchmark was written,
# with CPU time following wall time), which no number of repeats removes.
# So a fixed pure-Python kernel runs between every two jobs (and set-ups),
# and every time of a pass (of the set-up) is scaled by CAL_REF_S over the
# mean kernel time of that pass.  There the machine switched between a fast
# and a 1.7x slower phase several times a second: a single kernel time
# shows only the phase it fell in, and a median only the commoner phase,
# while the mean follows the share of slow time, as job times do.
# CAL_REF_S is about the kernel's time when that 2-core x86-64 machine ran
# fast.  The kernel never calls knotmut, so a change to knotmut cannot
# move it.
CAL_ROUNDS = 20000
CAL_POLY_TERMS = 120
CAL_LIST_LEN = 20000
CAL_REF_S = 0.0086


def calibration() -> float:
    """Seconds for a fixed kernel of pure-Python work like knotmut's own.

    Three parts: dict, int and tuple updates; a product of two dict
    polynomials, as in Laurent arithmetic; and building and sorting a list
    of ints, so that it is not tied to one kind of work.
    """
    t = perf_counter()
    d: dict[int, int] = {}
    n = 0
    for i in range(CAL_ROUNDS):
        e = (i * 7) % 101
        d[e] = d.get(e, 0) + i * 3
        n += len((i, e))
    a = {i: (i * 7) % 13 - 6 for i in range(CAL_POLY_TERMS)}
    b = {i: (i * 5) % 11 - 5 for i in range(-CAL_POLY_TERMS // 2, CAL_POLY_TERMS // 2)}
    prod: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            prod[ea + eb] = prod.get(ea + eb, 0) + ca * cb
    xs = [(i * 2654435761) % 1000003 for i in range(CAL_LIST_LEN)]
    xs.sort()
    return perf_counter() - t


@dataclass
class PassResult:
    latencies: list[float]        # per job, at the reference speed
    raw_latencies: list[float]    # per job, as timed
    outcomes: dict[str, str] = field(default_factory=dict)   # key -> outcome
    problems: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    @property
    def raw_wall_s(self) -> float:
        return sum(self.raw_latencies)


def run_pass(wl: workloads.Workload, expected: dict, tracer: Tracer | None = None,
             frozen: dict | None = None) -> PassResult:
    """Run every job once; classify each as done, limited or failed.

    `tracer`, when given, is installed only while the jobs run, not while
    their outputs are checked.  With `frozen` given, outputs are recorded
    into it instead of being compared with `expected`.
    """
    gc.collect()
    outputs = []
    raw = []
    cal = [calibration()]
    if tracer is not None:
        tracer.install()
    try:
        for job in wl.jobs:
            if tracer is not None:
                tracer.job = job.key
            # each job starts on a collected heap, so that the collector's
            # work inside it does not depend on the jobs before it
            gc.collect()
            t = perf_counter()
            try:
                outputs.append((job, "value", job.run()))
            except skein2.ResourceLimitExceeded as exc:
                outputs.append((job, "limited", exc))
            except Exception as exc:   # a job failure must not end the run
                outputs.append((job, "error", exc))
            raw.append(perf_counter() - t)
            cal.append(calibration())
    finally:
        if tracer is not None:
            tracer.uninstall()
    scale = CAL_REF_S / statistics.mean(cal)
    res = PassResult([x * scale for x in raw], raw)

    groups: dict[str, list] = {}
    for job, kind, value in outputs:
        problems = []
        if kind == "limited":
            outcome = "limited"
            if frozen is not None:
                frozen[job.key] = workloads.LIMITED
        elif kind == "error":
            outcome = "failed"
            problems.append(f"{type(value).__name__}: {value}")
        else:
            outcome = "done"
            problems += job.check(value)
            for key, got in job.record(value).items():
                if frozen is not None:
                    if frozen.setdefault(key, got) != got:
                        problems.append(f"{key}: two diagrams disagree")
                    continue
                want = expected.get(key)
                if want is None:
                    problems.append(f"no expected value for {key}")
                elif want != workloads.LIMITED and want != got:
                    problems.append(f"{key}: output differs from expected")
            if job.group is not None:
                groups.setdefault(job.group, []).append((job, json.dumps(
                    value, sort_keys=True, default=str)))
        if problems:
            outcome = "failed"
            res.problems += [f"{job.key}: {p}" for p in problems]
        res.outcomes[job.key] = outcome
    for group, members in groups.items():
        if len({text for _, text in members}) > 1:
            res.problems.append(f"{group}: mutant covers disagree")
            for job, _ in members:
                res.outcomes[job.key] = "failed"
    return res


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, count) at the highest percentile with ten attempts beyond."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(1, n - TAIL_BEYOND)
    return xs[k - 1], 100.0 * k / n, n


def setup(name: str, seed: int, repeats: int) -> tuple[workloads.Workload, list[float]]:
    """Set the workload up `repeats` times; each time is the mean of a batch."""
    times = []
    cal = [calibration()]
    wl = None
    for _ in range(repeats):
        gc.collect()
        t = perf_counter()
        for _ in range(SETUP_BATCH[name]):
            wl = workloads.SETUPS[name](random.Random(seed))
        times.append((perf_counter() - t) / SETUP_BATCH[name])
        cal.append(calibration())
    scale = CAL_REF_S / statistics.mean(cal)
    return wl, [x * scale for x in times]


def pass_count(name: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_S[name]))


def measure(name: str, seed: int, seconds: float, expected: dict) -> dict:
    wl, setup_times = setup(name, seed, SETUP_REPEATS)
    # A fixed pass count keeps the percentile behind job_tail_ms and the
    # attempt count the same from run to run, however fast the machine.
    passes = [run_pass(wl, expected) for _ in range(pass_count(name, seconds))]
    # wall_s sums each job's median over the passes.  job_p50_ms is the
    # median over jobs of each job's mean over the passes: a job of tens of
    # milliseconds falls wholly into a fast or a slow phase of the machine,
    # and its mean evens that out.  The tail is taken over single attempts,
    # so that ten of them lie beyond it.
    per_job = [statistics.median(p.latencies[i] for p in passes)
               for i in range(len(wl.jobs))]
    mean_job = [statistics.mean(p.latencies[i] for p in passes)
                for i in range(len(wl.jobs))]
    lat = [x for p in passes for x in p.latencies]
    outcomes = [o for p in passes for o in p.outcomes.values()]
    attempted = len(outcomes)
    failed = outcomes.count("failed")
    t_val, t_pct, t_n = tail(lat)
    metrics = {
        "wall_s": (sum(per_job), "s"),
        "job_p50_ms": (1000 * statistics.median(mean_job), "ms"),
        "job_tail_ms": (1000 * t_val, "ms"),
        "decided_frac": (outcomes.count("done") / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    raw_wall = statistics.median(p.raw_wall_s for p in passes)
    print(f"workload {name}, seed {seed}: {len(passes)} passes of "
          f"{len(wl.jobs)} jobs, {attempted} jobs attempted; times at the "
          f"reference speed (raw wall_s {raw_wall:.4f} s)")
    for key, (value, unit) in metrics.items():
        extra = (f"  (p{t_pct:.0f} of {t_n} attempts of {len(wl.jobs)} jobs)"
                 if key == "job_tail_ms" else "")
        print(f"  {key:<14} {value:12.4f} {unit}{extra}")
    print(f"  {'failed_frac':<14} {failed / attempted:12.4f} ratio  "
          f"(limited {outcomes.count('limited')}, failed {failed})")
    report_problems(passes)
    return result(attempted, failed, metrics)


def measure_traced(name: str, seed: int, expected: dict) -> dict:
    """Two untraced passes, then one traced pass; per-layer metrics.

    trace.overhead_s is the traced pass's wall time minus the mean of the
    untraced ones.
    """
    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        wl = workloads.SETUPS[name](random.Random(seed))
    finally:
        setup_tracer.uninstall()
    plain = [run_pass(wl, expected) for _ in range(2)]
    plain_wall = statistics.mean(p.wall_s for p in plain)
    tracer = Tracer()
    traced = run_pass(wl, expected, tracer)
    metrics = tracer.layer_metrics()
    for key in ("permgroups.closure.s", "tangles.glue.s"):
        value, unit = metrics[key]
        metrics[key] = (value + setup_tracer.layer_metrics()[key][0], unit)
    metrics["trace.overhead_s"] = (traced.wall_s - plain_wall, "s")
    print(f"workload {name}, seed {seed}, traced: wall_s traced "
          f"{traced.wall_s:.4f} s, untraced {plain_wall:.4f} s")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<46} {value:14.4f} {unit}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"setup": setup_tracer.span_records(),
                   "pass": tracer.span_records()}, fh)
    print(f"  spans written to {os.path.relpath(path)}")
    passes = plain + [traced]
    outcomes = [o for p in passes for o in p.outcomes.values()]
    report_problems(passes)
    return result(len(outcomes), outcomes.count("failed"), metrics)


def report_problems(passes: list[PassResult]) -> None:
    seen = set()
    for p in passes:
        for msg in p.problems:
            if msg not in seen:
                seen.add(msg)
                print(f"  CHECK FAILED {msg}")


def result(attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    if args.trace:
        out = measure_traced(args.workload, args.seed, expected)
    else:
        out = measure(args.workload, args.seed, args.seconds, expected)
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
