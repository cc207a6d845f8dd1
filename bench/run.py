#!/usr/bin/env python3
"""Run one seeded benchmark workload against the localduality sources.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from `src/` of the checkout this file sits in; no
installed copy is used.  The run repeats whole rounds (every op of the
workload once) in one process, one call at a time, until S seconds have
passed, and checks every output outside the timed region.

With --trace 0 it reports the end-to-end metrics:
  setup_s      median of 2 x SETUP_REPEATS fresh imports of the package plus
               input generation, half before the rounds and half after
  wall_s       median time of one round (sum of its timed op calls)
  op_p50_s     median time of one op over all rounds of the run
  peak_rss_mb  peak resident memory of this process
Every time is normalized to the machine's speed (see Clock): each timed
call is scaled by REFERENCE_NOMINAL_S over the time of a fixed pure-Python
reference computation measured just before it, every SAMPLE_INTERVAL_S
while it runs and just after it, which cancels most of the speed swings of
a shared machine.  The raw seconds are printed in the comment lines.
With --trace 1 it runs a warm-up round, then alternates traced and
untraced rounds, and reports the per-layer metrics of the traced rounds
(medians over rounds), `trace.overhead_s`, the median traced minus the
median untraced round time, and the untraced rounds' raw wall-clock
figures `raw.setup_s`, `raw.wall_s`, `raw.op_p50_s` with `raw.reference_s`,
the median time of the reference computation in the run; the spans are
written to .bench_trace/ in the checkout.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import traceback
from functools import partial
from pathlib import Path
from time import perf_counter

from tracing import Tracer, metric_unit

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 16
# Time of reference_seconds() on the 2-core machine the figures in
# bench/README.md come from, when it ran at its faster speed.  It only sets
# the unit of the normalized figures; it calibrates nothing.
REFERENCE_NOMINAL_S = 0.010
# Period of the reference samples taken while a timed call runs.
SAMPLE_INTERVAL_S = 0.25
LAYERS = ("exactla", "graded", "complexes", "torsion", "cohom", "duality",
          "relative", "cli")


def import_package():
    """Import localduality afresh from the checkout's src/."""
    for name in [n for n in sys.modules
                 if n == "localduality" or n.startswith("localduality.")]:
        del sys.modules[name]
    pkg = importlib.import_module("localduality")
    for layer in LAYERS:
        importlib.import_module("localduality." + layer)
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"localduality imported from {pkg.__file__}, "
                          f"not from {SRC}")
    return pkg


def reference_seconds() -> float:
    """Time of a fixed pure-Python computation shaped like the package's hot
    paths (sparse products mod 2 on dicts keyed by tuples).  It runs no code
    of the package; it measures how fast the machine runs right now.  The
    garbage collector is off while it runs, so a collection of the
    package's heap does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        a = {(i, (i * 7 + j) % 64): 1 for i in range(64) for j in range(4)}
        for _ in range(33):
            by_row = {}
            for (i, k), v in a.items():
                by_row.setdefault(i, {})[k] = v
            out = {}
            for (i, j), x in a.items():
                for k, y in by_row.get(j, {}).items():
                    out[(i, k)] = (out.get((i, k), 0) + x * y) % 2
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def outer_reference() -> float:
    """Median of three reference times, for the references taken just before
    and just after a call: single ones jump by a quarter or more about one
    time in ten on a shared machine."""
    return statistics.median(reference_seconds() for _ in range(3))


class Clock:
    """Times a call in seconds and in normalized seconds.

    While the call runs, an interval timer samples reference_seconds() every
    SAMPLE_INTERVAL_S; the samples' own time is taken out of the call's time.
    The normalized time is the call's time times the mean of
    REFERENCE_NOMINAL_S / reference over the outer reference measured just
    before the call, the samples and the one just after, so a speed change in the
    middle of a long call is tracked too.  With sample=False only the two
    outer references are used (the traced rounds, whose self times must not
    include the samples)."""

    def __init__(self):
        self.reference = outer_reference()
        self.references = [self.reference]
        self._sampling = False
        self._samples = []
        self._sampled_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        if self._sampling:
            self._sampling = False      # a late tick must not nest a sample
            t0 = perf_counter()
            self._samples.append(reference_seconds())
            self._sampled_s += perf_counter() - t0
            self._sampling = True

    def time(self, fn, *args, sample: bool = True):
        self._samples, self._sampled_s = [], 0.0
        if sample:
            self._sampling = True
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = perf_counter()
        try:
            out = fn(*args)
        finally:
            self._sampling = False
            raw = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        raw -= self._sampled_s
        after = outer_reference()
        refs = [self.reference, *self._samples, after]
        scale = statistics.fmean(REFERENCE_NOMINAL_S / r for r in refs)
        self.reference = after
        self.references.extend(refs[1:])
        return out, raw, raw * scale


def set_up(build, seed: int):
    """Raw and normalized times of SETUP_REPEATS set-ups, with the last
    set-up's ops."""
    clock = Clock()
    raw, normalized = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        ops, r, n = clock.time(lambda: build(import_package(), seed))
        raw.append(r)
        normalized.append(n)
    return raw, normalized, ops


def run_rounds(ops, seconds: float, tracer=None):
    """Whole rounds until `seconds` have passed.  With a tracer, a warm-up
    round comes first and is counted nowhere else than in `attempted`; then
    traced and untraced rounds alternate, at least one of each.  Round and
    op times are normalized (see Clock); the raw ones are kept for the
    report's comment lines."""
    plain_rounds, traced_rounds, op_times, layers = [], [], [], []
    raw_rounds, raw_op_times = [], []
    attempted = 0
    failures, mismatches = [], []
    clock = Clock()
    deadline = perf_counter() + seconds
    n = 0
    while n == 0 or perf_counter() < deadline or (tracer and n < 3):
        traced = tracer is not None and n % 2 == 1
        warm_up = tracer is not None and n == 0
        if traced:
            tracer.reset_counters()
            tracer.install()
        raw_times, times = [], []
        for op in ops:
            args = op.prepare()
            gc.collect()    # start every op from a clean heap, untimed
            attempted += 1
            call = partial(tracer.call_op, op.label, op.call) if traced else op.call
            try:
                out, raw, normalized = clock.time(call, *args, sample=not traced)
            except Exception:
                failures.append(f"{op.label}: {traceback.format_exc()}")
                continue
            raw_times.append(raw)
            times.append(normalized)
            try:
                msg = op.check(out)
            except Exception as exc:
                msg = f"check raised {exc!r}"
            if msg:
                mismatches.append(f"{op.label}: {msg}")
        if traced:
            tracer.uninstall()
            scale = sum(times) / sum(raw_times)
            layers.append({name: value * scale if metric_unit(name) == "s"
                           else value
                           for name, value in tracer.layer_metrics().items()})
            traced_rounds.append(sum(times))
        elif not warm_up:
            plain_rounds.append(sum(times))
            op_times.extend(times)
            raw_rounds.append(sum(raw_times))
            raw_op_times.extend(raw_times)
        n += 1
    return {"plain_rounds": plain_rounds, "traced_rounds": traced_rounds,
            "op_times": op_times, "layers": layers, "attempted": attempted,
            "failures": failures, "mismatches": mismatches,
            "raw_rounds": raw_rounds, "raw_op_times": raw_op_times,
            "references": clock.references}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "localduality" / "__init__.py").is_file():
        print(f"no localduality sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (loaded once, outside the timed set-up)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    build = WORKLOADS[args.workload]
    setup_raw, setup_normalized, ops = set_up(build, args.seed)
    tracer = Tracer() if args.trace else None
    res = run_rounds(ops, args.seconds, tracer)
    # set up again after the rounds, so that one speed spell of the machine
    # at the start of the run does not decide the set-up time
    more_raw, more_normalized, _ = set_up(build, args.seed)
    setup_raw = statistics.median(setup_raw + more_raw)
    setup_s = statistics.median(setup_normalized + more_normalized)

    if args.trace:
        metrics = {name: statistics.median(layer[name] for layer in res["layers"])
                   for name in res["layers"][0]}
        metrics["trace.overhead_s"] = (statistics.median(res["traced_rounds"])
                                       - statistics.median(res["plain_rounds"]))
        metrics["raw.setup_s"] = setup_raw
        metrics["raw.wall_s"] = statistics.median(res["raw_rounds"])
        metrics["raw.op_p50_s"] = statistics.median(res["raw_op_times"])
        metrics["raw.reference_s"] = statistics.median(res["references"])
        out_dir = ROOT / ".bench_trace"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(res["plain_rounds"]),
            "op_p50_s": statistics.median(res["op_times"]) if res["op_times"] else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"# raw seconds: setup {setup_raw:.4f}, op p50 "
              f"{statistics.median(res['raw_op_times']):.4f}, rounds "
              + " ".join(f"{t:.3f}" for t in res["raw_rounds"]))
    for msg in res["failures"][:5]:
        print(f"OPERATION FAILED {msg}", file=sys.stderr)
    for msg in res["mismatches"][:20]:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    rounds = res["attempted"] // len(ops)
    print(f"# {args.workload} seed={args.seed} rounds={rounds} "
          f"ops/round={len(ops)} attempted={res['attempted']} "
          f"failed={len(res['failures'])}")
    print("# ops: " + ", ".join(op.label for op in ops))
    print("# untraced rounds, normalized seconds: "
          + " ".join(f"{t:.3f}" for t in res["plain_rounds"]))
    if args.trace:
        print("# traced rounds, normalized seconds: "
              + " ".join(f"{t:.3f}" for t in res["traced_rounds"]))
    for name, value in metrics.items():
        print(f"#   {name:34s} {value:14.6f} {metric_unit(name)}")
    result = {
        "correct": not res["mismatches"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": {name: {"value": value, "unit": metric_unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
