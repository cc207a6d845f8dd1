"""The proven Koszul stage at the ideal of the ring's even generators.

For a module M and that ideal, `torsion._stage_floor` reads s*(s, t) off the
minimal free resolution of M over the polynomial ring P on the even
generators, and Gamma and Lambda build the one stage min(s_max, s*): no
tail, no map between stages.  Its unflagged entries must equal local
duality (`duality._duality_table`) for Gamma and M in H_0 for Lambda, and
the bound is tight: the stage just below s* differs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from localduality import torsion
from localduality.cli import Environment, corpus, parse
from localduality.cohom import cohomology_table
from localduality.complexes import homology
from localduality.duality import _duality_table, absolute_gorenstein_check
from localduality.graded import GradedModule, GradedRing, Window
from localduality.torsion import (_ideal_data, _koszul_tower, _materialize,
                                  _stage_floor, completion, dual_koszul_free,
                                  gamma, koszul_free)
from conftest import max_ideal

EVEN_RINGS = [(e.name, ring) for e in corpus()
              for ring in [Environment(parse(e.text)[0]).ring("R")]
              if not any(ring.parity)]
WINDOWS = [Window(-4, 4), Window(-6, 3)]


@st.composite
def even_modules(draw):
    """A module over an even corpus ring: one or two generators in degree
    0 or -1 and up to two relations, each a standard monomial of degree -1
    to -3 at one generator."""
    name, ring = draw(st.sampled_from(EVEN_RINGS))
    degrees = draw(st.lists(st.integers(-1, 0), min_size=1, max_size=2))
    monos = [m for t in (-1, -2, -3) for m in ring.basis_in_degree(t)]
    rows = []
    for _ in range(draw(st.integers(0, 2)) if monos else 0):
        row = [{} for _ in degrees]
        row[draw(st.integers(0, len(degrees) - 1))] = \
            {draw(st.sampled_from(monos)): 1}
        rows.append(row)
    return GradedModule(ring, [(f"u{j}", d) for j, d in enumerate(degrees)],
                        rows, name=f"{name}<{degrees}|{len(rows)}>")


@settings(max_examples=60, deadline=None)
@given(even_modules(), st.sampled_from(WINDOWS), st.sampled_from([None, 3]))
def test_one_stage_agrees_with_local_duality(mod, w, s_max):
    m = max_ideal(mod.ring)
    exact = _duality_table(mod, m, w)
    g = gamma(mod, m, w, s_max)
    tower = cohomology_table(g, m)
    keys = (set(exact.entries) | set(tower.entries)) - set(tower.flags)
    assert {k: exact.dim(*k) for k in keys} == \
        {k: tower.dim(*k) for k in keys}, mod.name
    lam = completion(mod, m, w, s_max)
    for (s, t), v in lam.homotopy.items():
        if (s, t) not in lam.flags:
            assert v == (mod.dim_in_degree(t) if s == 0 else 0), (mod.name, s, t)


def _exact_below(functor, mod, w):
    """The largest s*(s, t) over t in w, the stage the window alone needs."""
    floor = _stage_floor(functor, mod, max_ideal(mod.ring), w)
    return max(v for (_, t), v in floor.items() if t <= w.t_hi)


def _stage_homology(functor, mod, w, s):
    """The homology on w of stage s alone of the Gamma or Lambda tower."""
    m = max_ideal(mod.ring)
    floor = w.t_lo - s * _ideal_data(m)[1] - 1 if functor == "gamma" \
        else w.t_lo - 1
    X = _materialize(mod, w, floor)
    return homology(_koszul_tower(functor, X, m, w, s, s).stages[-1], w)


PLANE = GradedRing(2, [("x", -1), ("y", -1)], [], name="F2[x,y]")


@pytest.mark.parametrize("mod,s_star", [
    (GradedModule(PLANE, [("u", 0)], [["x^16"]], name="P/(x^16)"), 21),
    (GradedModule.free_module(PLANE, [0], name="P"), 5)])
def test_gamma_stage_floor_is_tight(mod, s_star):
    w = Window(-6, 6)
    assert _exact_below("gamma", mod, w) == s_star
    want = {(-i, t): v for (i, t), v in
            _duality_table(mod, max_ideal(PLANE), w).entries.items()}
    assert _stage_homology("gamma", mod, w, s_star) == want
    assert _stage_homology("gamma", mod, w, s_star - 1) != want


def test_lambda_stage_floor_is_tight():
    mod = GradedModule.free_module(PLANE, [0], name="P")
    w = Window(-6, 6)
    s_star = _exact_below("completion", mod, w)
    assert s_star == 7
    want = {(0, t): mod.dim_in_degree(t) for t in w.t_range()
            if mod.dim_in_degree(t)}
    assert _stage_homology("completion", mod, w, s_star) == want
    assert _stage_homology("completion", mod, w, s_star - 1) != want


def _record(monkeypatch, name):
    calls = []
    real = getattr(torsion, name)

    def recording(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(torsion, name, recording)
    return calls


def _degrees(F):
    return {sigma: f.gen_degrees for sigma, f in F.stages.items()}


@pytest.mark.parametrize("functor", [gamma, completion])
def test_functor_at_the_maximal_ideal_realizes_one_stage(functor, monkeypatch):
    tensors = _record(monkeypatch, "free_tensor")
    maps = _record(monkeypatch, "free_tensor_map")
    mod = GradedModule(PLANE, [("u", 0)], [["x^2"]], name="P/(x^2)")
    m = max_ideal(PLANE)
    res = functor(mod, m, Window(-6, 6))
    # one stage, the one the provenance names, and only the unit map
    assert len(tensors) == 1 and len(maps) == 1
    koszul = dual_koszul_free if functor is gamma else koszul_free
    assert _degrees(tensors[0]) == \
        _degrees(koszul(PLANE, m.gens, res.provenance["stage"]))


def test_absolute_gorenstein_check_realizes_one_stage(monkeypatch):
    tensors = _record(monkeypatch, "free_tensor")
    maps = _record(monkeypatch, "free_tensor_map")
    ring = GradedRing(2, [("x", -1), ("y", -1), ("z", -1)], [],
                      name="F2[x,y,z]")
    rep = absolute_gorenstein_check(ring, max_ideal(ring), Window(-8, 8))
    assert rep["verdict"] is True and rep["shift"] == 0
    # one Koszul stage; the one map is the unit, none joins two stages
    assert len(tensors) == 1 and len(maps) == 1
