"""Acceptance gate: exact desk computations and property suites.

Each test is one release criterion.  Tolerances are exact (zero); no check
is probabilistic.  Stated time budgets are asserted.
"""

import json
import random
import time

import pytest

from localduality.graded import (GradedModule, GradedRing, HomIdeal, Window,
                                 minimal_free_resolution, tor)
from localduality.complexes import homology, module_complex, resolution_complex
from localduality.torsion import check_recollement, local_to_global_acyclicity
from localduality.cohom import collapse_check, local_cohomology, oracle_agreement
from localduality.duality import (absolute_gorenstein_check, dual_localize,
                                  gorenstein_certificate, maximal_ideal,
                                  orthogonality_check)
from localduality.relative import RingMap, dualizing_module, theorem_bc_check
from localduality.cli import parse, run
from conftest import free, max_ideal


W12 = Window(-12, 12)


# 1. Gorenstein shifts ---------------------------------------------------------


@pytest.mark.parametrize("gens,rels,n,nu", [
    ([("x", -1)], [], 1, 0),
    ([("x", -1), ("y", -1)], [], 2, 0),
    ([("c", -2)], [], 1, 1),
])
def test_gorenstein_shifts_exact(gens, rels, n, nu):
    ring = GradedRing(2, gens, [])
    t0 = time.perf_counter()
    cert = gorenstein_certificate(ring, W12)
    elapsed = time.perf_counter() - t0
    assert cert.verdict is True
    assert (cert.krull_dim, cert.shift) == (n, nu)
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_gorenstein_negative_with_witness():
    base = GradedRing(2, [("x", -1), ("y", -1)], [])
    ring = base.quotient([base.parse("x^2"), base.parse("x*y")], name="NG")
    t0 = time.perf_counter()
    cert = gorenstein_certificate(ring, W12)
    elapsed = time.perf_counter() - t0
    assert cert.verdict is False
    assert cert.failure, "refusal must carry an explicit witness"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


# 2. Local cohomology tables, two independent pipelines ------------------------


def test_plane_h2_table_exact():
    ring = GradedRing(2, [("x", -1), ("y", -1)], [])
    t = local_cohomology(free(ring), max_ideal(ring), W12)
    for tt in range(2, 13):
        assert t.dim(2, tt) == tt - 1
    assert not any(v for (i, _), v in t.entries.items() if i in (0, 1))


def test_oracle_agreement_zero_tolerance():
    ring = GradedRing(2, [("x", -1), ("y", -1)], [])
    rep = oracle_agreement(free(ring), Window(-8, 8))
    assert rep["verdict"], rep["mismatches"]
    assert not rep["mismatches"]


# 3. Collapse identity on the corpus ------------------------------------------


def _collapse_corpus():
    line = GradedRing(2, [("x", -1)], [], name="L")
    plane = GradedRing(2, [("x", -1), ("y", -1)], [], name="P")
    hyp = plane.quotient([plane.parse("y^2")], name="H")
    art = GradedRing(2, [("z", -1)], [{(3,): 1}], name="A")
    mods = [
        free(line),
        GradedModule(line, [("a", 0)], [["x^3"]]),
        GradedModule(line, [("a", 0), ("b", -2)], []),
        GradedModule.residue_field(line),
        free(plane),
        GradedModule(plane, [("a", 0)], [["x"]]),
        GradedModule(plane, [("a", 0), ("b", -1)], [["x^2", "y"]]),
        GradedModule.residue_field(plane),
        free(hyp),
        GradedModule(hyp, [("a", 0)], [["x^2"]]),
        free(art),
        GradedModule.residue_field(art),
    ]
    return mods


def test_collapse_identity_on_corpus():
    mods = _collapse_corpus()
    assert len(mods) >= 10
    w = Window(-8, 8)
    t0 = time.perf_counter()
    for mod in mods:
        rep = collapse_check(mod, maximal_ideal(mod.ring), w)
        assert rep["verdict"], (mod.name, rep)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


# 4. Recollement property suite on random modules ------------------------------


def _random_cyclic(ring, rng, name):
    monos = ["x^2", "x*y", "y^2", "x^3", "y^3", "x^2*y"]
    rels = sorted(rng.sample(monos, rng.randint(0, 2)))
    rels = [[r] for r in rels if ring.normal_form(ring.parse(r))]
    return GradedModule(ring, [("a", -rng.randint(0, 1))], rels, name=name)


def test_recollement_random_modules():
    base = GradedRing(2, [("x", -1), ("y", -1)], [])
    quotients = [
        base,
        base.quotient([base.parse("y^2")], name="Q1"),
        base.quotient([base.parse("x^3")], name="Q2"),
        base.quotient([base.parse("x*y")], name="Q3"),
        base.quotient([base.parse("x^2"), base.parse("y^3")], name="Q4"),
    ]
    w = Window(-6, 6)
    rng = random.Random(20240)
    for i in range(20):
        ring = quotients[i % len(quotients)]
        mod = _random_cyclic(ring, rng, f"m{i}")
        rep = check_recollement(mod, maximal_ideal(ring), w)
        checks = {k: v for k, v in rep.items() if isinstance(v, bool)}
        assert checks and all(checks.values()), (i, mod.name, rep)


# 5. Relative duality desk instance --------------------------------------------


def test_relative_duality_desk_instance():
    W10 = Window(-10, 10)
    line = GradedRing(2, [("x", -1)], [], name="R")
    plane = GradedRing(2, [("x", -1), ("y", -1)], [])
    hyp = plane.quotient([plane.parse("y^2")], name="S")
    f = RingMap(line, hyp, ["x"], name="f")
    t0 = time.perf_counter()
    om = dualizing_module(f, W10)
    assert om.invertible and om.stage == 0 and om.gen_degree == 1
    rep = theorem_bc_check(f, maximal_ideal(hyp), W10)
    elapsed = time.perf_counter() - t0
    assert rep["verdict"] and rep["mode"] == "exact", rep
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_relative_duality_degenerates_to_absolute():
    W10 = Window(-10, 10)
    line = GradedRing(2, [("x", -1)], [], name="R")
    f = RingMap.identity(line)
    rel = theorem_bc_check(f, maximal_ideal(line), W10)
    ab = absolute_gorenstein_check(line, maximal_ideal(line), W10)
    assert rel["verdict"] and ab["verdict"]
    assert rel["j0"] == 0 and rel["gen_degree"] == 0


# 6. Orthogonality -------------------------------------------------------------


def test_orthogonality_window_acyclic():
    plane = GradedRing(2, [("x", -1), ("y", -1)], [])
    p = HomIdeal(plane, [plane.parse("x")], is_prime_asserted=True, name="(x)")
    m = maximal_ideal(plane)
    rep = orthogonality_check(p, m, "y", Window(-8, 8))
    assert rep["verdict"], rep
    assert not rep["residual"]


# 7. Dual localization, exact kappa(p)-ranks ----------------------------------


def test_dual_localization_at_height_one():
    plane = GradedRing(2, [("x", -1), ("y", -1)], [])
    p = HomIdeal(plane, [plane.parse("x")], is_prime_asserted=True, name="(x)")
    w = Window(-8, 8)
    cert = gorenstein_certificate(plane, w)
    rep = dual_localize(free(plane), p, w, certificate=cert)
    assert rep["ranks"] == {2: 1}, rep
    assert rep["dimension_drop"] == 1
    ab = absolute_gorenstein_check(plane, p, w, certificate=cert)
    assert ab["verdict"] and ab["offset"] == 1, ab


# 8. Local-to-global detector --------------------------------------------------


def test_local_to_global_classification():
    line = GradedRing(2, [("x", -1)], [])
    m = maximal_ideal(line)
    generic = HomIdeal(line, [], is_prime_asserted=True, name="(0)")
    detectors = [(m, None), (generic, "x")]
    w = Window(-6, 6)
    rng = random.Random(777)
    cases = []
    for i in range(5):
        # acyclic: generator killed by a unit relation
        cases.append((GradedModule(line, [("a", -rng.randint(0, 2))],
                                   [[{(0,): 1}]], name=f"z{i}"), True))
    for i in range(5):
        k = rng.randint(1, 4)
        cases.append((GradedModule(line, [("a", -rng.randint(0, 2))],
                                   [[f"x^{k}"]], name=f"n{i}"), False))
    rng.shuffle(cases)
    for mod, is_acyclic in cases:
        rep = local_to_global_acyclicity(mod, detectors, w)
        assert rep["agreement"], (mod.name, rep)
        assert rep["direct_acyclic"] is is_acyclic, (mod.name, rep)
        assert rep["local_acyclic"] is is_acyclic, (mod.name, rep)


# 9. Kuenneth / Tor collapse ---------------------------------------------------


def test_kuenneth_tor_collapse_random_pairs():
    plane = GradedRing(2, [("x", -1), ("y", -1)], [])
    rng = random.Random(1905)
    w = Window(-6, 6)
    cap = 4
    for trial in range(10):
        a = _random_cyclic(plane, rng, f"a{trial}")
        b = _random_cyclic(plane, rng, f"b{trial}")
        res = minimal_free_resolution(a, cap)
        off = -min((d for st in res.stages for d in st.gen_degrees),
                   default=0)
        tt = tor(a, b, Window(w.t_lo, w.t_hi, 0, cap))
        want = {}
        for (p, t), v in tt.items():
            if v:
                want[p + t] = want.get(p + t, 0) + v
        C = resolution_complex(res).realize(b, w, validate=False)
        got = {}
        for (s, t), v in homology(C, w).items():
            if v:
                got[s + t] = got.get(s + t, 0) + v
        top = min(0, max((g[1] for g in a.generators), default=0)
                  + max((g[1] for g in b.generators), default=0))
        for n in range(w.t_lo + off + 1, top + 1):
            assert got.get(n, 0) == want.get(n, 0), \
                (trial, n, got, want)


# 10. Determinism --------------------------------------------------------------


SESSION = """\
[ring R]
char = 2
generators = x:-1, y:-1
relations = y^2

[module M]
ring = R
generators = a:0
relation = x^2

[ideal m]
ring = R
generators = x, y

[run]
hilbert R
gorenstein R
lc M m
collapse-check M m
"""


def test_full_session_byte_identical():
    spec1, d1 = parse(SESSION)
    spec2, d2 = parse(SESSION)
    assert spec1 is not None and not d1, d1
    r1, c1 = run(spec1, seed=42, default_window=Window(-8, 8))
    r2, c2 = run(spec2, seed=42, default_window=Window(-8, 8))
    assert c1 == c2 == 0, (c1, r1["diagnostics"])
    b1 = json.dumps(r1, indent=2, sort_keys=True).encode()
    b2 = json.dumps(r2, indent=2, sort_keys=True).encode()
    assert b1 == b2
    for word in (b"time", b"elapsed", b"duration"):
        assert word not in b1
