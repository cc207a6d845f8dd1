#!/usr/bin/env python3
"""Relative dualizing module walkthrough for the finite flat map
f: F2[x] -> F2[x,y]/(y^2).

Computes the compactness certificate, the dualizing module omega_f with its
invertibility certificate, and the duality comparison at the maximal ideal
of the target.

Usage: python scripts/relative_duality_demo.py [--window LO:HI]
"""

import argparse
import json
import sys

from localduality.cli import parse_window_args
from localduality.graded import GradedRing
from localduality.duality import maximal_ideal
from localduality.relative import (RingMap, compactness_certificate,
                                   dualizing_module, theorem_bc_check)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--window", default="-10:10", metavar="LO:HI")
    args, w = parse_window_args(ap)
    if w is None:
        return 1

    line = GradedRing(2, [("x", -1)], [], name="R")
    plane = GradedRing(2, [("x", -1), ("y", -1)], [])
    hyp = plane.quotient([plane.parse("y^2")], name="S")
    f = RingMap(line, hyp, ["x"], name="f")
    print(f"map: {f!r}")

    comp = compactness_certificate(f, w)
    print(f"compactness: certified={comp['certified']} "
          f"resolution ranks={comp['ranks']}")

    om = dualizing_module(f, w, compactness=comp)
    print(f"omega_f: stage={om.stage} generator degree={om.gen_degree} "
          f"invertible={om.invertible}")

    rep = theorem_bc_check(f, maximal_ideal(hyp), w)
    serializable = {k: v for k, v in rep.items()
                    if isinstance(v, (bool, int, str, list, dict, tuple))}
    print("duality comparison at m_S:")
    print(json.dumps(serializable, indent=2, sort_keys=True, default=str))
    return 0 if rep["verdict"] else 1


if __name__ == "__main__":
    sys.exit(main())
