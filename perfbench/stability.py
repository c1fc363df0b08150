#!/usr/bin/env python3
"""Runs the benchmark over several seeds and checks that it is steady.

    python3 perfbench/stability.py

Run from the repository root. For every workload it runs the command of
BENCHMARK.json at its run_seconds, untraced under seeds 1..10 and traced
under seeds 1 and 2, and then

  * requires every result to be correct with no failed request,
  * requires the exact work counters and the output digests to be equal
    on every untraced run, and the exact work counters of the traced runs
    (SweepStats counts, TaskGraph::len, ProfileCache::stats deltas,
    ServerStats.completed, ...) to be equal on both (not merely close),
  * prints each end-to-end metric's median, quartiles and spread
    (Q3 - Q1) / median next to its bound; the target is a spread below
    a third of the bound (setup_s is exempt from the spread rule),
  * prints the per-layer metrics of the first traced run, including the
    tracing overhead.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Info fields that must repeat exactly (digests are seed-independent).
EXACT_INFO = ("exact", "digest", "first_block_digest", "best_iteration_s")
SEEDS = range(1, 11)
TRACED_SEEDS = (1, 2)


def run(workload, seed, trace):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", "1" if trace else "0",
    ]
    began = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - began
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])["perfbench"]
    info["run_s"] = round(took, 2)
    return info, json.loads(lines[-1])


def check_exact(runs):
    """Problems with the correctness and the exact blocks of `runs`, and
    the exact block of the first run."""
    problems = []
    for info, result in runs:
        if not result["correct"] or result["failed"]:
            problems.append(f"seed {info['seed']}: incorrect, mismatches {info['mismatches']}")
    first = {k: runs[0][0].get(k) for k in EXACT_INFO}
    for info, _ in runs[1:]:
        now = {k: info.get(k) for k in EXACT_INFO}
        if now != first:
            problems.append(f"seed {info['seed']}: exact counters differ: {now} != {first}")
    return problems, first


def check_runs(workload, runs):
    problems, first = check_exact(runs)
    print(f"\n== {workload}: {len(runs)} runs, exact {json.dumps(first)}")
    host = [info["host"] for info, _ in runs]
    cores = [h["effective_cores"] for h in host]
    took = [info["run_s"] for info, _ in runs]
    print(f"   effective cores {min(cores)}..{max(cores)}, "
          f"calibration {statistics.median(h['calib_ns_per_iter'] for h in host):.3f} ns/iter, "
          f"run wall {min(took)}..{max(took)} s")
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [result["metrics"][name]["value"] for _, result in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        steady = name == "setup_s" or spread < bound / 3
        flag = "ok" if steady else "SPREAD"
        print(f"   {name:26} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
              f"spread {spread:7.4f}  bound {bound:5.3f}  {flag}")
        if not steady:
            problems.append(f"{name}: spread {spread:.4f} >= bound/3 {bound / 3:.4f}")
    return problems


def check_traced(workload, runs):
    problems, first = check_exact(runs)
    took = [info["run_s"] for info, _ in runs]
    print(f"   {len(runs)} traced runs ({min(took)}..{max(took)} s), exact {json.dumps(first)}")
    metrics = runs[0][1]["metrics"]
    for metric in SPEC["per_layer"]:
        m = metrics[metric["name"]]
        print(f"     {metric['name']:34} {m['value']:16.6g} {m['unit']}")
    return [f"traced {p}" for p in problems]


def main():
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run(workload, seed, False) for seed in SEEDS]
        problems += [f"{workload}: {p}" for p in check_runs(workload, runs)]
        traced = [run(workload, seed, True) for seed in TRACED_SEEDS]
        problems += [f"{workload}: {p}" for p in check_traced(workload, traced)]
    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
