"""Differential test of the tail-only Koszul tower against the whole tower.

`reference_tower` is the loop the Koszul tower ran before it built only the
certified tail: every stage 1..s_max is realized in full, up to its top and
with generator actions, and joined to the next, and the whole tower is
handed to `_homology_tower`.  The tail-only tower (`torsion._koszul_tower`
on the functor's input) must give the same homotopy, flags, model and maps
to and from the input.  Its stages below the model are the reference stages
cut to t <= w.t_hi, with no actions and a window that ends at the cut, and
its maps are the reference maps on that range; every map it builds must be
a chain map.  The tail rule is what the functors run on a complex that is
not a module, so the inputs are Koszul objects M // g of corpus modules.
The unit map
is written by `free_tensor_map`; `projection_to_unit` and
`inclusion_of_unit` are the hand-written unit maps it replaced, kept here
as its reference, and the tower leaves no monomial action memoised on its
input.
"""

import pytest

from localduality.cli import Environment, corpus, parse
from localduality.complexes import ComplexMap, free_tensor, free_tensor_map
from localduality.exactla import SparseMatrix
from localduality.graded import GradedModule, HomIdeal, Window
from localduality.torsion import (CONSEC, _homology_tower, _ideal_data,
                                  _koszul_tower, _materialize,
                                  _subset_chain_map, completion,
                                  dual_koszul_free, gamma, koszul_free,
                                  koszul_object)


def projection_to_unit(F, C, L, X):
    """Project F tensor X onto the block of F's degree-0 unit generator in
    stage 0."""
    ring = F.ring
    unit_idx = next(i for i, d in enumerate(F.stage(0).gen_degrees) if d == 0)
    out = {}
    for (s, t), parts in L.items():
        for sigma, b, off, d in parts:
            if sigma == 0 and b == unit_idx:
                ent = {(r, off + r): 1 for r in range(d)}
                out[(s, t)] = SparseMatrix(ring.field, X.dim(s, t),
                                           C.dim(s, t), ent)
    return ComplexMap(C, X, out)


def inclusion_of_unit(F, C, L, X):
    """Include X as the block of F's degree-0 unit generator in stage 0 of
    F tensor X."""
    ring = F.ring
    unit_idx = next(i for i, d in enumerate(F.stage(0).gen_degrees) if d == 0)
    out = {}
    for (s, t), parts in L.items():
        for sigma, b, off, d in parts:
            if sigma == 0 and b == unit_idx:
                ent = {(off + r, r): 1 for r in range(d)}
                out[(s, t)] = SparseMatrix(ring.field, C.dim(s, t),
                                           X.dim(s, t), ent)
    return ComplexMap(X, C, out)


def reference_tower(functor, m, p, w, s_max):
    """Every stage 1..s_max of the tower, each in full; returns the tower's
    certification, its stages and maps, and the map between the last stage
    and the input."""
    ring = p.ring
    elems, total_weight = _ideal_data(p)
    colim = functor == "gamma"
    floor = w.t_lo - s_max * total_weight - 1 if colim else w.t_lo - 1
    X = _materialize(m, w, floor)
    koszul = dual_koszul_free if colim else koszul_free
    comps = _subset_chain_map(ring, elems, dual=colim)
    src, tgt = (-2, -1) if colim else (-1, -2)
    stages, layouts, frees, maps = [], [], [], []
    try:
        for s in range(1, s_max + 1):
            F = koszul(ring, elems, s)
            C, L = free_tensor(F, X, t_floor=w.t_lo)
            frees.append(F)
            stages.append(C)
            layouts.append(L)
            if s > 1:
                maps.append(free_tensor_map(frees[src], comps, X,
                                            stages[src], layouts[src],
                                            stages[tgt], layouts[tgt]))
            X.age_monomial_actions()
    finally:
        X.clear_monomial_actions()
    direction = "colim" if colim else "lim"
    table, flags = _homology_tower(stages, maps, direction, w)
    unit = projection_to_unit if colim else inclusion_of_unit
    edge = unit(frees[-1], stages[-1], layouts[-1], X)
    return table, flags, stages, maps, edge


W = Window(-3, 3)
S_MAX = 5


def _corpus_cases():
    for entry in corpus():
        spec, _ = parse(entry.text)
        ring = Environment(spec).ring("R")
        ideal = HomIdeal(ring, [ring.gen_poly(i) for i in range(ring.n)],
                         is_prime_asserted=True, name="m")
        g0 = ring.gen_poly(0)
        # deep enough for every gamma stage up to S_MAX
        deep = Window(W.t_lo - S_MAX * _ideal_data(ideal)[1] - 1, W.t_hi)
        for mod in (GradedModule.free_module(ring, [0], name="R"),
                    GradedModule.residue_field(ring),
                    GradedModule(ring, [("u", 0)], [[ring.poly_mul(g0, g0) or g0]],
                                 name="cyclic")):
            X = koszul_object(mod, [g0], deep)
            yield pytest.param(ring, X, ideal, id=f"{entry.name}-{mod.name}")


def _same_complex(a, b):
    assert a.dims == b.dims
    assert a.diffs == b.diffs
    assert a.actions == b.actions
    assert (a.s_min, a.s_max, a.t_top, a.window) == \
        (b.s_min, b.s_max, b.t_top, b.window)


def _below(d, t_hi):
    """The entries of a dict keyed by bidegrees (s, t) with t <= t_hi."""
    return {k: v for k, v in d.items() if k[1] <= t_hi}


def _same_cut_complex(a, b, t_hi):
    """a is the full complex b cut to t <= t_hi: a window that ends at the
    cut, and no actions when the cut lies below b's top."""
    lo = b.window.t_lo
    cut = max(lo, min(t_hi, b.t_top))
    assert a.window == Window(lo, cut)
    assert a.dims == _below(b.dims, cut)
    assert a.diffs == _below(b.diffs, cut)
    assert a.actions == ({} if cut < b.t_top else b.actions)
    assert (a.s_min, a.s_max, a.t_top) == (b.s_min, b.s_max, b.t_top)


@pytest.mark.parametrize("ring,inp,ideal", list(_corpus_cases()))
def test_tail_matches_whole_tower(ring, inp, ideal):
    w = W
    for functor, run in (("gamma", gamma), ("completion", completion)):
        for s_max in range(1, S_MAX + 1):
            res = run(inp, ideal, w, s_max=s_max)
            table, flags, stages, maps, edge = reference_tower(
                functor, inp, ideal, w, s_max)
            first = max(1, s_max - CONSEC)
            tower = _koszul_tower(functor, res.provenance["input"], ideal, w,
                                  first, s_max)
            assert len(tower.stages) == s_max - first + 1
            assert len(tower.maps) == s_max - first
            assert res.provenance["stage"] == s_max
            assert res.homotopy == table
            assert res.flags == flags
            for i, c in enumerate(tower.stages[:-1]):
                _same_cut_complex(c, stages[first - 1 + i], w.t_hi)
            _same_complex(tower.stages[-1], stages[-1])
            for i, f in enumerate(tower.maps):
                assert f.comps == _below(maps[first - 1 + i].comps, w.t_hi)
                f.validate()
            _same_complex(res.model, stages[-1])
            got = res.to_input if functor == "gamma" else res.from_input
            assert got.comps == edge.comps == tower.unit.comps
            got.validate()
            X = res.provenance["input"]
            assert not X._monomials and not X._monomials_old
