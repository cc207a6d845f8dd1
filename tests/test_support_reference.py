"""Differential tests of the support-only loops against the box loops.

`free_tensor`, `cone` and `torsion._homology_tower` visit only the nonzero
bidegrees of their inputs.  The references below are the loops they ran
before, over every (s, t) of the box; each must give the same dicts, in the
same insertion order, and the same flags.
"""

import random
from typing import Dict, List, Set, Tuple

import pytest

from localduality import complexes, torsion
from localduality.complexes import (BiDeg, ComplexMap, WindowedComplex,
                                    _by_source, _positions, cone,
                                    complex_element_action, direct_sum,
                                    free_tensor, homology_space,
                                    induced_on_homology, module_complex, shift)
from localduality.exactla import SparseMatrix, rank
from localduality.graded import GradedModule, GradedRing, Window
from localduality.torsion import (CONSEC, _homology_tower, _koszul_tower,
                                  completion, dual_koszul_free, gamma,
                                  koszul_free)
from conftest import max_ideal


def _rings():
    base = GradedRing(2, [("x", -1), ("y", -1)], [], name="F2[x,y]")
    return [base, base.quotient([base.parse("x*y")], name="Q"),
            GradedRing(3, [("x", -1), ("y", -2)], [], name="F3[x,y]")]


def _random_cyclic(ring, rng, name):
    monos = ["x^2", "x*y", "y^2", "x^3", "y^3", "x^2*y"]
    rels = sorted(rng.sample(monos, rng.randint(0, 2)))
    rels = [[r] for r in rels if ring.normal_form(ring.parse(r))]
    return GradedModule(ring, [("a", -rng.randint(0, 1))], rels, name=name)


def _seeded_modules(count=6, seed=1505):
    rng = random.Random(seed)
    rings = _rings()
    return [_random_cyclic(rings[i % len(rings)], rng, f"m{i}")
            for i in range(count)]


def _same_complex(a: WindowedComplex, b: WindowedComplex):
    for x, y in ((a.dims, b.dims), (a.diffs, b.diffs), (a.actions, b.actions)):
        assert list(x) == list(y)
        assert x == y
    assert (a.s_min, a.s_max, a.t_top, a.window) == \
        (b.s_min, b.s_max, b.t_top, b.window)


# free_tensor ----------------------------------------------------------------


def reference_free_tensor(F, X, t_floor):
    """free_tensor as it was: the layout scans every (s, t) of the box
    against every free generator."""
    ring = F.ring
    fld = ring.field
    max_gd = max((max(f.gen_degrees, default=0) for f in F.stages.values()),
                 default=0)
    lo = max(t_floor, X.window.t_lo + max(0, max_gd))
    t_top = X.t_top + F.top_internal()
    if lo > t_top:
        lo = t_top
    s_lo = F.s_min + X.s_min
    s_hi = F.s_max + X.s_max
    gens = [(sigma, b, gd) for sigma in range(F.s_min, F.s_max + 1)
            for b, gd in enumerate(F.stage(sigma).gen_degrees)]
    layout: Dict[BiDeg, List[Tuple[int, int, int, int]]] = {}
    dims: Dict[BiDeg, int] = {}
    for s in range(s_lo, s_hi + 1):
        for t in range(lo, t_top + 1):
            entries = []
            off = 0
            for sigma, b, gd in gens:
                d = X.dims.get((s - sigma, t - gd))
                if d:
                    entries.append((sigma, b, off, d))
                    off += d
            if off:
                layout[(s, t)] = entries
                dims[(s, t)] = off
    char = ring.characteristic
    positions = _positions(layout)
    free_diffs = {sigma: _by_source(F.diff_entries(sigma)) for sigma in F.stages}
    diffs: Dict[BiDeg, SparseMatrix] = {}
    actions: Dict[Tuple[int, int, int], SparseMatrix] = {}
    for (s, t), parts in layout.items():
        tpos = positions.get((s - 1, t))
        if tpos is not None:
            ent: Dict[Tuple[int, int], int] = {}
            for sigma, b, off, d in parts:
                gd = F.stages[sigma].gen_degrees[b]
                for a, q in free_diffs[sigma].get(b, ()):
                    key = (sigma - 1, a)
                    if key not in tpos:
                        continue
                    toff, td = tpos[key]
                    act = complex_element_action(X, q, s - sigma, t - gd)
                    for (r, c), v in act.entries.items():
                        k = (toff + r, off + c)
                        ent[k] = (ent.get(k, 0) + v) % char
                key = (sigma, b)
                dx = X.diffs.get((s - sigma, t - gd))
                if dx is not None and key in tpos:
                    toff, td = tpos[key]
                    sgn = -1 if sigma % 2 else 1
                    for (r, c), v in dx.entries.items():
                        k = (toff + r, off + c)
                        ent[k] = (ent.get(k, 0) + sgn * v) % char
            ent = {k: v for k, v in ent.items() if v}
            if ent:
                diffs[(s, t)] = SparseMatrix._trusted(
                    fld, dims.get((s - 1, t), 0), dims.get((s, t), 0), ent)
        for g, gen in enumerate(ring.generators):
            tpos = positions.get((s, t + gen.degree))
            if tpos is None:
                continue
            ent = {}
            for sigma, b, off, d in parts:
                act = X.actions.get((g, s - sigma, t - F.stages[sigma].gen_degrees[b]))
                if act is None or (sigma, b) not in tpos:
                    continue
                toff, td = tpos[(sigma, b)]
                for (r, c), v in act.entries.items():
                    ent[(toff + r, off + c)] = v
            if ent:
                actions[(g, s, t)] = SparseMatrix._trusted(
                    fld, dims.get((s, t + gen.degree), 0), dims.get((s, t), 0), ent)
    C = WindowedComplex(ring, dims, diffs, actions, s_lo, s_hi, t_top,
                        Window(lo, max(lo, t_top)))
    return C, layout


def _check_free_tensor(F, X, t_floor):
    C, L = free_tensor(F, X, t_floor=t_floor)
    X.clear_monomial_actions()
    C_ref, L_ref = reference_free_tensor(F, X, t_floor)
    X.clear_monomial_actions()
    assert list(L) == list(L_ref)
    assert L == L_ref
    _same_complex(C, C_ref)


@pytest.mark.parametrize("mod", _seeded_modules(), ids=lambda m: m.name)
def test_free_tensor_koszul_on_module(mod):
    ring = mod.ring
    w = Window(-5, 4)
    X = module_complex(mod, Window(-9, 4))
    for power in (1, 2, 3):
        F = koszul_free(ring, max_ideal(ring).gens, power)
        _check_free_tensor(F, X, w.t_lo)
        # at X's own floor, which only the free generators raise
        _check_free_tensor(F, X, X.window.t_lo)


@pytest.mark.parametrize("mod", _seeded_modules(), ids=lambda m: m.name)
def test_free_tensor_dual_koszul_on_complex_below_zero(mod):
    ring = mod.ring
    gens = max_ideal(ring).gens
    X, _ = free_tensor(dual_koszul_free(ring, gens),
                       module_complex(mod, Window(-12, 4)), t_floor=-8)
    assert X.s_min < 0
    for power in (1, 2):
        _check_free_tensor(dual_koszul_free(ring, gens, power), X, -5)
    # shifted by an odd homological degree and an internal degree
    Y = shift(X, -1, 1)
    _check_free_tensor(dual_koszul_free(ring, gens[:1], 2), Y, -4)


# cone -----------------------------------------------------------------------


def reference_cone(f: ComplexMap) -> WindowedComplex:
    """cone as it was: every (s, t) of the box, through A.diff, A.action and
    f.comp, which build empty matrices off the support."""
    A, B = f.source, f.target
    ring = A.ring
    fld = ring.field
    top = max(A.t_top, B.t_top)
    kh = complexes._known_hi
    w = Window(max(A.window.t_lo, B.window.t_lo),
               max(min(kh(A), kh(B), top), max(A.window.t_lo, B.window.t_lo)))
    dims: Dict[BiDeg, int] = {}
    for (s, t), v in A.dims.items():
        dims[(s + 1, t)] = dims.get((s + 1, t), 0) + v
    for (s, t), v in B.dims.items():
        dims[(s, t)] = dims.get((s, t), 0) + v
    diffs: Dict[BiDeg, SparseMatrix] = {}
    actions: Dict[Tuple[int, int, int], SparseMatrix] = {}
    s_lo = min(A.s_min + 1, B.s_min)
    s_hi = max(A.s_max + 1, B.s_max)
    for s in range(s_lo, s_hi + 1):
        for t in range(w.t_lo, max(A.t_top, B.t_top) + 1):
            da, db = A.dim(s - 1, t), B.dim(s, t)
            ta, tb = A.dim(s - 2, t), B.dim(s - 1, t)
            ent: Dict[Tuple[int, int], int] = {}
            for (i, j), v in A.diff(s - 1, t).entries.items():
                ent[(i, j)] = fld.neg(v)
            for (i, j), v in f.comp(s - 1, t).entries.items():
                ent[(ta + i, j)] = v
            for (i, j), v in B.diff(s, t).entries.items():
                ent[(ta + i, da + j)] = v
            if ent:
                diffs[(s, t)] = SparseMatrix._trusted(fld, ta + tb, da + db, ent)
            for g, gen in enumerate(ring.generators):
                t2 = t + gen.degree
                aent: Dict[Tuple[int, int], int] = {}
                for (i, j), v in A.action(g, s - 1, t).entries.items():
                    aent[(i, j)] = v
                da2 = A.dim(s - 1, t2)
                for (i, j), v in B.action(g, s, t).entries.items():
                    aent[(da2 + i, da + j)] = v
                if aent:
                    actions[(g, s, t)] = SparseMatrix._trusted(
                        fld, da2 + B.dim(s, t2), da + db, aent)
    return WindowedComplex(ring, dims, diffs, actions, s_lo, s_hi,
                           max(A.t_top, B.t_top), w)


def _raised_floor(c: WindowedComplex, t_lo: int) -> WindowedComplex:
    """c with its window floor raised to t_lo, keeping every bidegree below."""
    return WindowedComplex(c.ring, c.dims, c.diffs, c.actions, c.s_min,
                           c.s_max, c.t_top,
                           Window(t_lo, c.window.t_hi))


@pytest.mark.parametrize("mod", _seeded_modules(), ids=lambda m: m.name)
def test_cone_matches_box_loop(mod):
    p = max_ideal(mod.ring)
    w = Window(-4, 3)
    g = gamma(mod, p, w)
    lam = completion(g.provenance["input"], p, w)
    maps = [g.to_input, lam.from_input, ComplexMap(shift(g.model, -1), lam.model, {})]
    # an identity on a complex that has dims below its window floor
    ring_mod = GradedModule.free_module(mod.ring, [0], name="R")
    Xr = _raised_floor(module_complex(ring_mod, Window(-8, 3)), w.t_lo)
    assert any(t < Xr.window.t_lo for _, t in Xr.dims)
    maps.append(ComplexMap(Xr, Xr, {k: SparseMatrix.identity(Xr.ring.field, d)
                                    for k, d in Xr.dims.items()}))
    maps.append(ComplexMap(Xr, g.model, {}))
    for f in maps:
        _same_complex(cone(f), reference_cone(f))


def test_direct_sum_matches_box_loop():
    mods = _seeded_modules(count=3)
    a = module_complex(mods[0], Window(-6, 2))
    b = _raised_floor(module_complex(mods[0], Window(-8, 2)), -5)
    zero = ComplexMap(shift(a, -1), b, {})
    _same_complex(direct_sum(a, b), reference_cone(zero))


# _homology_tower ------------------------------------------------------------


def reference_homology_tower(stages, maps, direction, w):
    """_homology_tower as it was: homology spaces and induced maps at every
    (s, t) of the box."""
    table: Dict[BiDeg, int] = {}
    flags: Set[BiDeg] = set()
    s_lo = min(c.s_min for c in stages)
    s_hi = max(c.s_max for c in stages)

    def hdim(i, key):
        return homology_space(stages[i], *key)[1].rows

    last = len(stages) - 1
    tail = min(CONSEC, len(maps))
    for sh in range(s_lo, s_hi + 1):
        for t in w.t_range():
            key = (sh, t)
            end_dim = hdim(last, key)
            if not maps:
                flags.add(key)
                if end_dim:
                    table[key] = end_dim
                continue
            all_iso = True
            composite = None
            for step in range(tail):
                i = len(maps) - 1 - step
                src_i, tgt_i = (i, i + 1) if direction == "colim" else (i + 1, i)
                ind = induced_on_homology(
                    stages[src_i], stages[tgt_i], sh, t, t,
                    lambda: maps[i].comp(sh, t))
                if ind.rows != ind.cols or (ind.cols and rank(ind) != ind.cols):
                    all_iso = False
                if composite is None:
                    composite = ind
                else:
                    composite = (composite @ ind) if direction == "colim" \
                        else (ind @ composite)
            tail_dims = {hdim(i, key) for i in range(last - tail, last + 1)}
            if all_iso and tail >= CONSEC:
                if end_dim:
                    table[key] = end_dim
            elif composite is not None and not composite.entries \
                    and len(tail_dims) == 1 and tail >= CONSEC:
                pass    # certified zero
            else:
                flags.add(key)
                if end_dim:
                    table[key] = end_dim
    table = {k: v for k, v in table.items() if v}
    return table, flags


def _same_tower_values(stages, maps, direction, w):
    got = _homology_tower(stages, maps, direction, w)
    want = reference_homology_tower(stages, maps, direction, w)
    assert list(got[0].items()) == list(want[0].items())
    assert got[1] == want[1]


@pytest.mark.parametrize("mod", _seeded_modules(), ids=lambda m: m.name)
@pytest.mark.parametrize("functor", [gamma, completion])
def test_homology_tower_matches_box_loop(mod, functor):
    p = max_ideal(mod.ring)
    w = Window(-4, 3)
    for s_max in (None, 2, 1):
        res = functor(mod, p, w, s_max=s_max)
        stage = res.provenance["stage"]
        tower = _koszul_tower(functor.__name__, res.provenance["input"], p, w,
                              max(1, stage - CONSEC), stage)
        stages, maps = tower.stages, tower.maps
        _same_tower_values(stages, maps, tower.direction, w)
        # the last map alone (tail < CONSEC) and the last stage alone
        if maps:
            _same_tower_values(stages[-2:], maps[-1:], tower.direction, w)
        _same_tower_values(stages[-1:], [], tower.direction, w)


def test_hspace_at_zero_bidegree_is_homology_space():
    mod = _seeded_modules(count=1)[0]
    c, _ = free_tensor(koszul_free(mod.ring, max_ideal(mod.ring).gens),
                       module_complex(mod, Window(-6, 2)), t_floor=-6)
    zero = 0
    for s in range(c.s_min - 1, c.s_max + 2):
        for t in range(c.window.t_lo - 2, c.t_top + 2):
            got, want = c.hspace(s, t), homology_space(c, s, t)
            assert [(m.rows, m.cols, m.entries) for m in got[:3]] == \
                [(m.rows, m.cols, m.entries) for m in want[:3]]
            assert got[3] == want[3]
            zero += (s, t) not in c.dims
    assert zero


# no homology work off the support --------------------------------------------


def _module_as_complex(mod, w):
    """mod materialized deep enough for the tower of stages up to the
    window's default cap: a complex, so the functors run the tail rule on
    it rather than the stage floor of a module."""
    s_max = torsion.default_s_max(w)
    weight = sum(-mod.ring.poly_degree(g) for g in max_ideal(mod.ring).gens)
    return module_complex(mod, Window(w.t_lo - s_max * weight - 1,
                                      max(w.t_hi, mod.top_degree)))


def test_gamma_of_finite_length_module_skips_zero_bidegrees(monkeypatch):
    ring = _rings()[0]
    mod = GradedModule(ring, [("u", 0)], [["x^2"], ["y^2"]], name="fl")
    w = Window(-5, 3)
    X = _module_as_complex(mod, w)
    spaces, induced = [], []
    real_space = complexes.homology_space
    real_induced = torsion.induced_on_homology

    def recording_space(c, s, t):
        spaces.append((c, (s, t)))
        return real_space(c, s, t)

    def recording_induced(source, target, s, t, t2, chain):
        induced.append((s, t))
        return real_induced(source, target, s, t, t2, chain)

    monkeypatch.setattr(complexes, "homology_space", recording_space)
    monkeypatch.setattr(torsion, "induced_on_homology", recording_induced)
    res = gamma(X, max_ideal(ring), w)
    stage = res.provenance["stage"]
    tower = _koszul_tower("gamma", res.provenance["input"], max_ideal(ring), w,
                          max(1, stage - CONSEC), stage)
    tail = tower.stages[len(tower.stages) - 1 - min(CONSEC, len(tower.maps)):]
    support = set().union(*(c.dims for c in tail))
    box = {(s, t) for s in range(min(c.s_min for c in tower.stages),
                                 max(c.s_max for c in tower.stages) + 1)
           for t in w.t_range()}
    assert box - support and induced and spaces
    assert all(key in support for key in induced)
    assert all(key in c.dims for c, key in spaces)
    assert res.homotopy == {(0, 0): 1, (0, -1): 2, (0, -2): 1}


def test_tower_reads_no_stage_but_the_model_above_the_window(monkeypatch):
    """The stages below the model are realized only up to w.t_hi, so
    _homology_tower must ask none of them, nor any tower map, for a
    homology space or a component above it.  The modules enter as
    complexes, on which the functors run the tail rule."""
    ring = _rings()[0]
    mods = [GradedModule(ring, [("u", 0)], [["x^2"], ["y^2"]], name="fl"),
            GradedModule(ring, [("u", 0)], [["x^2"]], name="line")]
    spaces, comps = [], []
    real_hspace = WindowedComplex.hspace
    real_comp = ComplexMap.comp

    def recording_hspace(c, s, t):
        spaces.append((c, t))
        return real_hspace(c, s, t)

    def recording_comp(f, s, t):
        comps.append((f, t))
        return real_comp(f, s, t)

    p = max_ideal(ring)
    # a completion stage reaches only the input's top, so its window ends
    # below the module's top degree 0
    for mod in mods:
        for functor, w in ((gamma, Window(-5, 3)),
                           (completion, Window(-6, -2))):
            res = functor(_module_as_complex(mod, w), p, w)
            stage = res.provenance["stage"]
            tower = _koszul_tower(functor.__name__, res.provenance["input"],
                                  p, w, max(1, stage - CONSEC), stage)
            cut = tower.stages[:-1]
            assert cut and tower.maps
            assert any(c.t_top > w.t_hi for c in cut)
            assert all(c.window.t_hi <= w.t_hi for c in cut)
            spaces.clear()
            comps.clear()
            with monkeypatch.context() as mp:
                mp.setattr(WindowedComplex, "hspace", recording_hspace)
                mp.setattr(ComplexMap, "comp", recording_comp)
                got = _homology_tower(tower.stages, tower.maps,
                                      tower.direction, w)
            assert got == (res.homotopy, res.flags)
            assert spaces and comps
            assert all(t <= w.t_hi for c, t in spaces
                       if any(c is d for d in cut))
            assert all(t <= w.t_hi for f, t in comps)
