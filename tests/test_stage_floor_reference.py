"""Differential test of `torsion._stage_floor` against the per-cell maximum.

_stage_floor reads, at each homological degree b, the one generator degree
that decides s*(b, t) for every t (see its docstring).  The reference below
is the formula it replaced: at every cell (b, t), the largest module s* over
the pieces of the shape and the neighbouring degrees.  Both must give the
same dict on the seeded modules and on every shaped complex
`check_recollement` asks the floor of, for both functors, complexes of
several pieces included; and some cell must be decided by a neighbour
degree alone, so that the neighbours are seen.
"""

import pytest

from localduality import torsion
from localduality.graded import GradedModule, Window
from localduality.torsion import _shape, _stage_floor, check_recollement
from conftest import max_ideal
from test_stage_floor import _seeded_cyclic_modules


def reference_stage_floor(functor, m, p, w, near=None):
    """_stage_floor as it was: the module's s* at every cell, maximised
    over the pieces (j, d) and a in {b - j - 1, b - j, b - j + 1} (b - j
    alone for one piece, or the given near)."""
    shape = _shape(m)
    ring = p.ring
    even = [ring.gen_poly(i) for i, odd in enumerate(ring.parity) if not odd]
    if shape is None or sorted(sorted(g.items()) for g in p.gens) != \
            sorted(sorted(g.items()) for g in even):
        return None
    mod, pieces = shape
    from localduality.duality import _polynomial_resolution
    res = _polynomial_resolution(mod)
    P = res.ring
    n, weights, top = P.n, P.weights, sum(P.weights)
    colim = functor == "gamma"
    extreme = {}
    for a in (range(-n, 1) if colim else range(n + 1)):
        degs = [d for j in ((n + a, n + a + 1) if colim else (a, a - 1))
                if 0 <= j < len(res.stages) for d in res.stages[j].gen_degrees]
        if degs:
            extreme[a] = min(degs) if colim else max(degs)

    def module_floor(a, u):
        d = extreme.get(a)
        if d is None:
            return 1
        if colim:
            return max([1] + [(u - d - top + wi) // wi for wi in weights])
        return max(1, 1 + (d - u) // min(weights))

    s_lo, s_hi = (0, 0) if isinstance(m, GradedModule) else (m.s_min, m.s_max)
    if near is None:
        near = (0,) if len(pieces) == 1 else (-1, 0, 1)
    distinct = set(pieces)
    floor = {}
    b_range = range(s_lo - n, s_hi + 1) if colim else range(s_lo, s_hi + n + 1)
    for b in b_range:
        for t in range(w.t_lo, w.t_hi + top + 1):
            floor[(b, t)] = max(module_floor(b - j + e, t - d)
                                for j, d in distinct for e in near)
    return floor


MODULES = list(_seeded_cyclic_modules())


def _asked_of(mod, w, monkeypatch):
    """Every (m, window) check_recollement asks _stage_floor about."""
    asked = []
    real = torsion._stage_floor

    def recording(functor, m, p, w):
        asked.append((m, w))
        return real(functor, m, p, w)

    with monkeypatch.context() as mp:
        mp.setattr(torsion, "_stage_floor", recording)
        assert check_recollement(mod, max_ideal(mod.ring), w)["all"]
    return asked


def test_seeded_modules_are_the_recollement_slots():
    assert len(MODULES) == 8


@pytest.mark.parametrize("mod", MODULES, ids=lambda mod: mod.name)
def test_closed_form_is_the_per_cell_maximum(mod, monkeypatch):
    p = max_ideal(mod.ring)
    w = Window(-6, 6)
    inputs = [(mod, w), (mod, Window(-4, 3))] + \
        _asked_of(mod, w, monkeypatch)
    several = 0
    for m, win in inputs:
        pieces = _shape(m)[1]
        several += len(pieces) > 1
        for functor in ("gamma", "completion"):
            got = _stage_floor(functor, m, p, win)
            want = reference_stage_floor(functor, m, p, win)
            assert got is not None and list(got) == list(want)
            assert got == want, (functor, m, win)
    # the Gamma, L and Hom(F, M) models have several pieces
    assert several


def test_a_cell_is_decided_by_a_neighbour_degree(monkeypatch):
    """On a complex of several pieces some s*(b, t) exceeds the maximum
    over the pieces' own degree b - j: only a +-1 neighbour gives it, and
    the closed form finds it too."""
    p = max_ideal(MODULES[0].ring)
    w = Window(-6, 6)
    seen = 0
    for m, win in _asked_of(MODULES[0], w, monkeypatch):
        if len(_shape(m)[1]) == 1:
            continue
        for functor in ("gamma", "completion"):
            own = reference_stage_floor(functor, m, p, win, near=(0,))
            full = reference_stage_floor(functor, m, p, win)
            for key, v in _stage_floor(functor, m, p, win).items():
                if v > own[key]:
                    seen += 1
                    assert v == full[key]
    assert seen
