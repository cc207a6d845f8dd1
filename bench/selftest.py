#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs one round of every workload at toy size and requires every operation
to succeed and pass its check.  Then feeds each checker deliberately
perturbed tables, verdicts and reports and requires a rejection, checks the
independent Hilbert-function counter against closed forms, checks that the
clock samples the reference during a call and that a check which raises is
counted as a mismatch, and checks that run.py exits non-zero, printing no
result, where no sources are present.
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
import tempfile
from math import comb
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

FAILURES = []


def expect(cond: bool, what: str) -> None:
    print(("ok      " if cond else "FAILED  ") + what)
    if not cond:
        FAILURES.append(what)


def rejects(check, output, what: str) -> None:
    expect(check(output) is not None, f"rejects {what}")


def toy_outputs(pkg, name):
    """One toy round of a workload; returns {label: output}."""
    ops = wl.WORKLOADS[name](pkg, seed=3, toy=True)
    res = run.run_rounds(ops, seconds=0)
    expect(not res["failures"] and not res["mismatches"],
           f"{name}: toy round passes ({res['failures'] + res['mismatches']})")
    outs = {}
    for op in ops:
        outs[op.label] = op.call(*op.prepare())
    return ops, outs


def test_hilbert_counter():
    expect(all(wl.cyclic_hilbert(2, [], 0, t) == 1 - t for t in range(-6, 1)),
           "dim F2[x,y]_t = 1 - t")
    expect(all(wl.cyclic_hilbert(4, [], 0, -d) == comb(d + 3, 3) for d in range(7)),
           "dim F2[x0..x3]_{-d} = C(d+3, 3)")
    expect(wl.cyclic_hilbert(2, [(0, 2)], 0, -5) == 2 and
           wl.cyclic_hilbert(2, [(0, 2)], 0, 1) == 0, "dim F2[x,y]/(y^2)_t")


def test_recollement(pkg):
    ops, outs = toy_outputs(pkg, "recollement")
    rep = next(iter(outs.values()))
    for key in wl.RECOLLEMENT_KEYS:
        bad = dict(rep, **{key: False})
        rejects(wl.check_recollement_report, bad, f"recollement with {key} false")
    bad = dict(rep)
    del bad["adjunction"]
    rejects(wl.check_recollement_report, bad, "recollement without adjunction")
    bad = copy.deepcopy(rep)
    bad["fracture"]["exact"] = False
    rejects(wl.check_recollement_report, bad, "recollement with inexact fracture")
    rejects(wl.check_recollement_report, dict(rep, all=False),
            "recollement with all false")


def test_corpus_session(pkg):
    ops, outs = toy_outputs(pkg, "corpus_session")

    def perturbed(label, edit, what, code=0):
        """A fresh op's check, which has seen no earlier pass, must reject
        the report of `label` after `edit`."""
        report = copy.deepcopy(outs[label][0])
        edit(report)
        check = next(o for o in wl.corpus_session(pkg, 3, toy=True)
                     if o.label == label).check
        rejects(check, (report, code), what)

    def set_result(key, value):
        return lambda rep: rep["results"][0].__setitem__(key, value)

    for key, value in (("verdict", False), ("krull_dim", 2), ("shift", 0)):
        perturbed("corpus:hypersurface", set_result(key, value),
                  f"corpus entry with {key}={value}")
    for label, key, value in (("gorenstein S", "shift", 0),
                              ("omega f", "invertible", False),
                              ("omega f", "gen_degree", 0),
                              ("bc-check f mS", "mode", "probabilistic"),
                              ("oracle-check P", "verdict", False),
                              ("collapse-check M mS", "verdict", False)):
        perturbed(label, set_result(key, value), f"{label} with {key}={value}")

    def bump(label, pick):
        def edit(rep):
            rows = [r for r in rep["results"][0]["table"] if pick(r)]
            rows[0]["dim"] += 1
        perturbed(label, edit, f"{label} with one dimension + 1")

    bump("hilbert S", lambda r: True)
    bump("lc P mP", lambda r: r["i"] == 2 and r["t"] == 3)
    bump("tor M S", lambda r: True)
    perturbed("lc P mP", lambda rep: rep["results"][0]["table"].append(
        {"i": 1, "t": 0, "dim": 1, "flag": "stable"}), "nonzero H^1")
    perturbed("ext M S", lambda rep: rep["results"][0]["table"].append(
        {"i": 0, "t": -1, "dim": 1, "flag": "stable"}), "nonzero Hom(M, S)")
    perturbed("resolve M", lambda rep: rep["results"][0]["ranks"].__setitem__(1, 2),
              "perturbed resolution ranks")
    perturbed("gorenstein L", lambda rep: None, "nonzero exit code", code=1)
    perturbed("gorenstein L", lambda rep: rep["diagnostics"].append(
        {"line": 1, "message": "x"}), "diagnostics")
    perturbed("gorenstein L", lambda rep: rep["meta"].__setitem__("elapsed", 0.5),
              "a timing key")
    check = next(o for o in wl.corpus_session(pkg, 3, toy=True)
                 if o.label == "gorenstein L").check
    report = outs["gorenstein L"]
    expect(check(report) is None, "first pass accepted")
    second = copy.deepcopy(report[0])
    second["meta"]["seed"] = 99
    rejects(check, (second, 0), "a report that differs on the second pass")


def test_resolve_tor_ext(pkg):
    ops, outs = toy_outputs(pkg, "resolve_tor_ext")
    by = {op.label: op for op in ops}

    def bumped(label, *keys):
        table = dict(outs[label])
        for key in keys or [min(table)]:
            table[key] = table.get(key, 0) + 1
        return table

    # the Ext checks read the Betti numbers the tor(M,k) check stored, so
    # they go first, while those are unperturbed
    for label in ("ext(M,k)", "ext(M,N)", "tor(k,k)", "tor(N,k)", "tor(M,k)"):
        rejects(by[label].check, bumped(label), f"{label} with one entry + 1")
    rejects(by["tor(k,k)"].check, bumped("tor(k,k)", (1, -2)),
            "Tor(k, k) with an extra entry")
    by["tor(M,k)"].check(outs["tor(M,k)"])
    rejects(by["ext(M,N)"].check, bumped("ext(M,N)", (0, -1), (1, -1)),
            "Ext(M, N) with Ext^0 and Ext^1 both + 1 (Euler unchanged)")


def test_harness():
    def busy(seconds):
        end = perf_counter() + seconds
        while perf_counter() < end:
            pass

    clock = run.Clock()
    _, raw, normalized = clock.time(busy, 1.2)
    expect(len(clock.references) >= 4 and 0 < raw < 1.2 and normalized > 0,
           f"samples the reference while a call runs "
           f"({len(clock.references) - 2} samples, raw {raw:.3f} s)")
    before = len(clock.references)
    clock.time(busy, 0.7, sample=False)
    expect(len(clock.references) == before + 1, "sample=False takes no samples")

    def raising_check(out):
        raise KeyError("M")

    res = run.run_rounds([wl.Op("op", tuple, lambda: 1, raising_check)], seconds=0)
    expect(not res["failures"] and len(res["mismatches"]) == 1
           and "check raised" in res["mismatches"][0],
           "a check that raises counts as a mismatch")


def test_no_sources_exit():
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "recollement",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180, check=False)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"exits {proc.returncode} without a result when src/ is missing")


def main() -> int:
    pkg = run.import_package()
    test_hilbert_counter()
    test_harness()
    test_recollement(pkg)
    test_corpus_session(pkg)
    test_resolve_tor_ext(pkg)
    test_no_sources_exit()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
