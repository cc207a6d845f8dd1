#!/usr/bin/env python3
"""Run the bundled corpus of ring presentations through the Gorenstein
certifier and print a verdict table.

Usage: python scripts/certify_corpus.py [--window LO:HI] [--seed N]
"""

import argparse
import sys
import time

from localduality.cli import corpus, parse, parse_window_args, run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--window", default="-10:10", metavar="LO:HI")
    ap.add_argument("--seed", type=int, default=0)
    args, w = parse_window_args(ap)
    if w is None:
        return 1

    rows = []
    for entry in corpus():
        spec, diags = parse(entry.text)
        if spec is None or diags:
            rows.append((entry.name, "parse error", "", "", ""))
            continue
        t0 = time.perf_counter()
        report, code = run(spec, seed=args.seed, default_window=w)
        dt = time.perf_counter() - t0
        res = report["results"][0] if report["results"] else {}
        verdict = ("yes" if res["verdict"] else "no") if res else "diagnostic"
        rows.append((entry.name, verdict,
                     res.get("krull_dim", ""),
                     res.get("shift", ""),
                     f"{dt:.2f}s"))

    print(f"{'ring':<16}{'gorenstein':<14}{'dim':<6}{'shift':<8}{'time':<8}")
    for name, v, n, nu, dt in rows:
        print(f"{name:<16}{v:<14}{str(n):<6}{str(nu):<8}{dt:<8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
