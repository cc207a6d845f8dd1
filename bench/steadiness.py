#!/usr/bin/env python3
"""Steadiness run: every workload, several seeds, one process per run.

    python3 bench/steadiness.py [--runs 10] [--sets 1]

Runs `bench/run.py --trace 0` for every workload of BENCHMARK.json, at its
run_seconds, once per seed 1..runs, and repeats that whole set `--sets`
times.  For each set and every end-to-end metric it prints the median, the
quartiles and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.  For every later set
it also prints each median's shift from the first set's, as a share of the
first.  A spread or a shift at or above a third of the metric's bound is
marked, and the exit code is then 1.  It also prints the share of failed
operations, which must be the same in every run, and each run's raw
wall-clock seconds.  With --runs 1 it is the one command that runs all
workloads and prints every end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int):
    """The run's result and its `# raw seconds` comment line."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    raw = next((l for l in lines if l.startswith("# raw seconds")), "")
    return json.loads(lines[-1]), raw


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    first_medians = {}
    for n_set in range(1, args.sets + 1):
        for workload in (w["name"] for w in spec["workloads"]):
            runs = []
            for seed in range(1, args.runs + 1):
                res, raw = run_once(workload, seed, spec["run_seconds"])
                runs.append(res)
                print(f"set {n_set} {workload} seed={seed} correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} " + " ".join(
                          f"{k}={v['value']:.4f} {v['unit']}"
                          for k, v in res["metrics"].items()),
                      flush=True)
                print(f"  {raw}", flush=True)
            shares = {r["failed"] / r["attempted"] for r in runs}
            correct = all(r["correct"] for r in runs)
            steady &= correct and len(shares) == 1
            print(f"set {n_set} {workload}: all correct={correct} "
                  f"failed shares={sorted(shares)}")
            if len(runs) < 2:
                continue
            for name, bound in bounds.items():
                q1, med, q3, s = spread([r["metrics"][name]["value"] for r in runs])
                line = (f"  {name:12s} median={med:.4f} q1={q1:.4f} q3={q3:.4f} "
                        f"spread={s:.3f}")
                marks = [] if s < bound / 3 else ["spread"]
                first = first_medians.setdefault((workload, name), med)
                if n_set > 1:
                    shift = (med - first) / first
                    line += f" shift={shift:+.3f}"
                    if abs(shift) >= bound / 3:
                        marks.append("shift")
                steady &= not marks
                print(f"{line} bound={bound}"
                      + (f"  <-- not steady ({', '.join(marks)})" if marks else ""),
                      flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
