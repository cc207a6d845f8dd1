"""Differential tests of the realization layer against reference copies.

`reference_realize` is the per-entry realization of a free complex against a
module that `FreeComplex.realize` used before it became a wrapper around
`free_tensor`; `reference_induced` is the solve-based map induced on
homology (a section of the homology projection found by elimination) that
several modules carried before `induced_on_homology` replaced them;
`reference_element_action` builds every monomial action as a fresh chain of
generator-action products, as `complex_element_action` did before monomial
actions were memoised on each complex.  Both paths must agree matrix for
matrix.
"""

import random

import pytest

from localduality.cli import Environment, corpus, parse
from localduality.complexes import (FreeComplex, WindowedComplex,
                                    complex_element_action, free_tensor, homology_space,
                                    induced_on_homology, module_complex,
                                    resolution_complex)
from localduality.exactla import SparseMatrix, kernel_basis, quotient_projection
from localduality.graded import (FreeModule, GradedModule, GradedRing,
                                 HomIdeal, Window, minimal_free_resolution)
from localduality.torsion import (_ideal_data, _koszul_tower, _materialize,
                                  completion, dual_koszul_free, gamma,
                                  koszul_free)
from conftest import solve_matrix


# references --------------------------------------------------------------------


def reference_realize(F, mod, w):
    """dims, diffs and actions of F (x) mod over w, entry by entry."""
    ring = F.ring
    dims, offsets = {}, {}
    for s, f in F.stages.items():
        for t in w.t_range():
            offs, acc = [], 0
            for d in f.gen_degrees:
                offs.append(acc)
                acc += mod.dim_in_degree(t - d)
            offsets[(s, t)] = offs
            if acc:
                dims[(s, t)] = acc
    diffs = {}
    for s, dmat in F.diffs.items():
        src = F.stage(s)
        for t in w.t_range():
            ent = {}
            for (a, b), p in dmat.items():
                act = mod.element_action(p, t - src.gen_degrees[b])
                for (r, c), v in act.entries.items():
                    key = (offsets[(s - 1, t)][a] + r, offsets[(s, t)][b] + c)
                    ent[key] = (ent.get(key, 0) + v) % ring.characteristic
            ent = {k: v for k, v in ent.items() if v}
            if ent:
                diffs[(s, t)] = SparseMatrix(
                    ring.field, dims.get((s - 1, t), 0), dims.get((s, t), 0), ent)
    actions = {}
    for g, gen in enumerate(ring.generators):
        for s, f in F.stages.items():
            for t in w.t_range():
                t2 = t + gen.degree
                if t2 < w.t_lo or t2 > w.t_hi or not dims.get((s, t)):
                    continue
                ent = {}
                for b, d in enumerate(f.gen_degrees):
                    act = mod.generator_action(g, t - d)
                    for (r, c), v in act.entries.items():
                        ent[(offsets[(s, t2)][b] + r, offsets[(s, t)][b] + c)] = v
                if ent:
                    actions[(g, s, t)] = SparseMatrix(
                        ring.field, dims.get((s, t2), 0), dims[(s, t)], ent)
    return dims, diffs, actions


def reference_element_action(X, p, s, t, ring):
    """Multiplication by a homogeneous element, monomial by monomial."""
    fld = ring.field
    if not p:
        return SparseMatrix(fld, 0, X.dim(s, t))
    dp = ring.poly_degree(p)
    out = SparseMatrix(fld, X.dim(s, t + dp), X.dim(s, t))
    for mono, c in p.items():
        cur = SparseMatrix.identity(fld, X.dim(s, t))
        tc = t
        ok = True
        for i, e in enumerate(mono):
            for _ in range(e):
                a = X.action(i, s, tc)
                if a.cols != cur.rows:
                    ok = False
                    break
                cur = a @ cur
                tc += ring.generators[i].degree
            if not ok:
                break
        if ok and cur.rows == out.rows:
            out = out.add(cur.scale(c))
    return out


def reference_homology_space(c, s, t):
    fld = c.ring.field
    d_in = c.diff(s + 1, t)
    cyc = kernel_basis(c.diff(s, t))
    K = SparseMatrix(fld, c.dim(s, t), len(cyc),
                     {(i, j): v for j, vec in enumerate(cyc)
                      for i, v in enumerate(vec)})
    if d_in.entries and K.cols:
        span = solve_matrix(K, d_in).transpose()
    else:
        span = SparseMatrix(fld, 0, K.cols)
    P, _ = quotient_projection(span)
    return K, P


def reference_induced(source, target, s, t, t2, chain):
    fld = source.ring.field
    Ks, Ps = reference_homology_space(source, s, t)
    Kt, Pt = reference_homology_space(target, s, t2)
    if Ps.rows == 0 or Pt.rows == 0:
        return SparseMatrix(fld, Pt.rows, Ps.rows)
    x = solve_matrix(Kt, chain @ Ks)
    sec = solve_matrix(Ps, SparseMatrix.identity(fld, Ps.rows))
    return Pt @ x @ sec


# realization cases -------------------------------------------------------------


def _rings():
    plane = GradedRing(2, [("x", -1), ("y", -1)], [], name="F2[x,y]")
    hyp = plane.quotient([plane.parse("y^2")], name="F2[x,y]/(y^2)")
    odd = GradedRing(3, [("a", -1, True), ("b", -2)], [], name="F3[a',b]")
    return [plane, hyp, odd]


def _modules(ring):
    g0 = ring.gen_poly(0)
    return [GradedModule.free_module(ring, [0], name="R"),
            GradedModule.residue_field(ring),
            GradedModule(ring, [("u", -1)], [[ring.poly_mul(g0, g0) or g0]],
                         name="cyclic")]


def _free_product(F, G):
    """F (x) G as one free complex, d(x@y) = dx@y + (-1)^{s1} x@dy: a free
    input with stages on both sides of 0 and mixed differential signs."""
    ring = F.ring
    stages, pos = {}, {}
    for s in range(F.s_min + G.s_min, F.s_max + G.s_max + 1):
        idx = [(s1, b1, b2) for s1 in range(F.s_min, F.s_max + 1)
               for b1 in range(F.stage(s1).rank)
               for b2 in range(G.stage(s - s1).rank)]
        if idx:
            stages[s] = FreeModule(ring, [F.stage(s1).gen_degrees[b1] +
                                          G.stage(s - s1).gen_degrees[b2]
                                          for s1, b1, b2 in idx])
            pos[s] = {key: i for i, key in enumerate(idx)}
    diffs = {}
    for s, src in pos.items():
        tgt = pos.get(s - 1, {})
        ent = {}
        for (s1, b1, b2), j in src.items():
            terms = [((s1 - 1, a, b2), p) for (a, b), p
                     in F.diff_entries(s1).items() if b == b1]
            terms += [((s1, b1, a), ring.poly_scale(p, -1 if s1 % 2 else 1))
                      for (a, b), p in G.diff_entries(s - s1).items() if b == b2]
            for key, p in terms:
                if key in tgt:
                    i = tgt[key]
                    ent[(i, j)] = ring.poly_add(ent.get((i, j), {}), p)
        ent = {k: p for k, p in ent.items() if p}
        if ent:
            diffs[s] = ent
    return FreeComplex(ring, stages, diffs)


def _complexes(ring, w):
    elems = [ring.gen_poly(i) for i in range(ring.n)]
    out = []
    for power in (1, 2, 3):
        out.append((f"kos{power}", koszul_free(ring, elems, power)))
        out.append((f"dkos{power}", dual_koszul_free(ring, elems, power)))
    cyc = _modules(ring)[2]
    res = resolution_complex(minimal_free_resolution(cyc, 3))
    out += [("res", res), ("dres", res.dual()),
            ("dkos_res", _free_product(dual_koszul_free(ring, elems, 1), res))]
    return out


def _realization_cases():
    w = Window(-4, 3)
    for ring in _rings():
        for mod in _modules(ring):
            for name, F in _complexes(ring, w):
                yield pytest.param(F, mod, w, id=f"{ring.name}-{mod.name}-{name}")


@pytest.mark.parametrize("F,mod,w", list(_realization_cases()))
def test_realize_matches_reference(F, mod, w):
    dims, diffs, actions = reference_realize(F, mod, w)
    C = F.realize(mod, w, validate=False)
    inside = lambda t: w.t_lo <= t <= w.t_hi
    assert {k: v for k, v in C.dims.items() if inside(k[1])} == dims
    assert {k: m for k, m in C.diffs.items() if inside(k[1])} == diffs
    ring = F.ring
    got = {(g, s, t): m for (g, s, t), m in C.actions.items()
           if inside(t) and inside(t + ring.generators[g].degree)}
    assert got == actions
    assert C.window.t_lo == w.t_lo


# memoised monomial actions ----------------------------------------------------


def _mismatched_complex():
    """A module-like complex over F2[x, y] whose stored actions do not compose:
    x from degree 0 has 3 columns on a 2-dimensional space, y from -1 lands
    in 2 rows over a 1-dimensional space, and x from -1 expects 2 columns."""
    ring = GradedRing(2, [("x", -1), ("y", -1)], [], name="F2[x,y]")
    fld = ring.field
    dims = {(0, 0): 2, (0, -1): 1, (0, -2): 1, (0, -3): 1}
    actions = {(0, 0, 0): SparseMatrix(fld, 1, 3, {(0, 2): 1}),
               (1, 0, 0): SparseMatrix(fld, 1, 2, {(0, 0): 1, (0, 1): 1}),
               (0, 0, -1): SparseMatrix(fld, 1, 2, {(0, 1): 1}),
               (1, 0, -1): SparseMatrix(fld, 2, 1, {(1, 0): 1}),
               (0, 0, -2): SparseMatrix(fld, 1, 1, {(0, 0): 1}),
               (1, 0, -2): SparseMatrix(fld, 1, 1, {(0, 0): 1})}
    return ring, WindowedComplex(ring, dims, {}, actions, 0, 0, 0, Window(-3, 0))


def _memo_cases():
    w = Window(-5, 2)
    odd = GradedRing(3, [("a", -1, True), ("b", -1, True), ("c", -2)], [],
                     name="F3[a',b',c]")
    odd_mod = GradedModule(odd, [("u", 0), ("v", 0)], [["a", "b"], ["c", "a*b"]],
                           name="two")
    for ring in _rings()[:2] + [odd]:
        elems = [ring.gen_poly(i) for i in range(ring.n)]
        mods = _modules(ring) + ([odd_mod] if ring is odd else [])
        for mod in mods:
            X = module_complex(mod, Window(w.t_lo - 6, mod.top_degree))
            yield pytest.param(ring, X, id=f"{ring.name}-{mod.name}")
            for power in (1, 2):
                C, _ = free_tensor(koszul_free(ring, elems, power), X,
                                   t_floor=w.t_lo)
                yield pytest.param(ring, C, id=f"{ring.name}-{mod.name}-kos{power}")
    yield pytest.param(*_mismatched_complex(), id="mismatched")


def _random_poly(rng, ring, degree):
    """Up to three monomials of one internal degree, with random coefficients."""
    monos = set()
    for _ in range(rng.randint(1, 3)):
        mono = [0] * ring.n
        left = -degree
        for i in rng.sample(range(ring.n), ring.n):
            w = -ring.generators[i].degree
            mono[i] = rng.randint(0, left // w)
            left -= mono[i] * w
        if left == 0:
            monos.add(tuple(mono))
    return {m: rng.randint(1, ring.characteristic - 1) for m in monos}


@pytest.mark.parametrize("ring,X", list(_memo_cases()))
def test_memoised_element_action_matches_reference(ring, X):
    rng = random.Random(f"{ring.name}-{len(X.dims)}")
    ts = range(X.window.t_lo, X.t_top + 1)
    queries = []
    while len(queries) < 60:
        p = _random_poly(rng, ring, -rng.randint(0, 4))
        if p or rng.random() < 0.1:
            queries.append((p, rng.randint(X.s_min, X.s_max), rng.choice(ts)))
    nonzero = 0
    # repeat the queries within an age and across ages of the memo
    for age in range(3):
        for p, s, t in rng.sample(queries, len(queries)) + queries:
            got = complex_element_action(X, p, s, t)
            assert got == reference_element_action(X, p, s, t, ring)
            nonzero += bool(got.entries)
        if age == 1:
            X.age_monomial_actions()
    assert nonzero


def test_mismatched_monomials_are_skipped():
    ring, X = _mismatched_complex()
    x, y = {(1, 0): 1}, {(0, 1): 1}
    # generators apply in index order: x*y from 0 starts with x, 3 columns on
    # a 2-dimensional space, and is skipped
    assert complex_element_action(X, {(1, 1): 1}, 0, 0).entries == {}
    assert complex_element_action(X, y, 0, 0).entries == {(0, 0): 1, (0, 1): 1}
    # y from -1 lands in 2 rows over a 1-dimensional degree
    assert complex_element_action(X, y, 0, -1).entries == {}
    # x from -1 expects 2 columns; y^2 from -1 fails at its second factor
    assert complex_element_action(X, x, 0, -1).entries == {}
    assert complex_element_action(X, {(0, 2): 1}, 0, -1).entries == {}
    assert complex_element_action(X, x, 0, -2).entries == {(0, 0): 1}


# induced maps on the corpus ----------------------------------------------------


def _corpus_modules():
    for entry in corpus():
        spec, _ = parse(entry.text)
        ring = Environment(spec).ring("R")
        ideal = HomIdeal(ring, [ring.gen_poly(i) for i in range(ring.n)],
                         is_prime_asserted=True, name="m")
        g0 = ring.gen_poly(0)
        for mod in (GradedModule.free_module(ring, [0], name="R"),
                    GradedModule.residue_field(ring),
                    GradedModule(ring, [("u", 0)], [[ring.poly_mul(g0, g0) or g0]],
                                 name="cyclic")):
            yield pytest.param(ring, mod, ideal, id=f"{entry.name}-{mod.name}")


def _assert_spaces_match(c, s, t):
    K, P, sec, free = homology_space(c, s, t)
    assert (K, P) == reference_homology_space(c, s, t)
    # cycle j is 1 at free[j] and 0 at the other free columns
    assert {k: v for k, v in K.entries.items() if k[0] in free} == \
        {(r, j): 1 for j, r in enumerate(free)}
    assert P @ sec == SparseMatrix.identity(c.ring.field, P.rows)


@pytest.mark.parametrize("ring,mod,ideal", list(_corpus_modules()))
def test_induced_matches_reference(ring, mod, ideal):
    w = Window(-4, 4)
    compared = 0
    for functor in (gamma, completion):
        res = functor(mod, ideal, w, s_max=5)
        # the tail of stages 2..5, on an input deep enough for stage 5
        X = _materialize(mod, w, w.t_lo - 5 * _ideal_data(ideal)[1] - 1)
        tower = _koszul_tower(functor.__name__, X, ideal, w, 2, 5)
        lim = tower.direction == "lim"
        for i, f in enumerate(tower.maps):
            src, tgt = (f.source, f.target)
            assert (src, tgt) == ((tower.stages[i + 1], tower.stages[i]) if lim
                                  else (tower.stages[i], tower.stages[i + 1]))
            for s in range(min(src.s_min, tgt.s_min), max(src.s_max, tgt.s_max) + 1):
                for t in w.t_range():
                    _assert_spaces_match(src, s, t)
                    got = induced_on_homology(src, tgt, s, t, t,
                                              lambda: f.comp(s, t))
                    assert got == reference_induced(src, tgt, s, t, t, f.comp(s, t))
                    compared += bool(got.rows and got.cols)
        model = res.model
        for g, gen in enumerate(ring.generators):
            q = ring.gen_poly(g)
            for s in range(model.s_min, model.s_max + 1):
                for t in w.t_range():
                    t2 = t + gen.degree
                    act = complex_element_action(model, q, s, t)
                    got = induced_on_homology(model, model, s, t, t2, lambda: act)
                    assert got == reference_induced(model, model, s, t, t2, act)
                    compared += bool(got.rows and got.cols)
    assert compared
