#!/usr/bin/env python3
"""Print one SHA-256 over the outputs of the benchmark workloads' operations.

Usage: python scripts/report_digest.py [--workload NAME ...] [--seed N ...]

Each operation of `bench/workloads.py` is run once per seed, in the
workload's order, with the package imported from `src/` of the checkout
this script sits in.  Its output is written in a canonical JSON form (dict
keys sorted by their canonical text), and the digest covers every output in
turn.  Running the script on two checkouts with the same arguments tells
whether their reports are byte-identical.  Each output is also checked by
the workload's own check; a failed check or a raised error is printed and
makes the exit code 1.  Defaults: every workload, seed 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import localduality.cli  # noqa: E402  (workloads read pkg.cli)
import workloads  # noqa: E402


def canon(x):
    """A JSON-ready form of an operation's output that fixes every order.

    The outputs are nested dicts (keyed also by tuples), lists, tuples,
    strings, ints, bools and None; a dict becomes its items sorted by the
    canonical text of each key.
    """
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, dict):
        return {"dict": sorted((json.dumps(canon(k)), canon(v)) for k, v in x.items())}
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", action="append", type=int)
    args = ap.parse_args()
    digest = hashlib.sha256()
    bad = 0
    for name in args.workload or sorted(workloads.WORKLOADS):
        for seed in args.seed or [1]:
            for op in workloads.WORKLOADS[name](localduality, seed):
                try:
                    out = op.call(*op.prepare())
                    error = op.check(out)
                except Exception as e:      # reported, and counted as bad
                    traceback.print_exc()
                    out, error = None, f"raised {type(e).__name__}: {e}"
                if error:
                    bad += 1
                    print(f"{name} seed {seed} {op.label}: {error}", file=sys.stderr)
                blob = json.dumps([name, seed, op.label, canon(out)], sort_keys=True)
                digest.update(blob.encode() + b"\n")
    print(digest.hexdigest())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
