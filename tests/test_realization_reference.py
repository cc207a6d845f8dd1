"""Differential tests of the realization layer against reference copies.

`reference_realize` is the per-entry realization of a free complex against a
module that `FreeComplex.realize` used before it became a wrapper around
`free_tensor`; `reference_induced` is the solve-based map induced on
homology (a section of the homology projection found by elimination) that
several modules carried before `induced_on_homology` replaced them.  Both
paths must agree matrix for matrix.
"""

import pytest

from localduality.cli import Environment, corpus, parse
from localduality.complexes import (complex_element_action, homology_space,
                                    induced_on_homology, resolution_complex)
from localduality.exactla import (SparseMatrix, kernel_basis,
                                  quotient_projection, solve_matrix)
from localduality.graded import (GradedModule, GradedRing, HomIdeal, Window,
                                 minimal_free_resolution)
from localduality.torsion import (completion, dual_koszul_free, gamma,
                                  koszul_free)


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


def reference_homology_space(c, s, t):
    fld = c.ring.field
    d_in = c.diff(s + 1, t)
    cyc = kernel_basis(c.diff(s, t))
    K = SparseMatrix.from_rows(fld, cyc, cols=c.dim(s, t)).transpose() \
        if cyc else SparseMatrix(fld, c.dim(s, t), 0)
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


def _complexes(ring, w):
    elems = [ring.gen_poly(i) for i in range(ring.n)]
    out = []
    for power in (1, 2, 3):
        out.append((f"kos{power}", koszul_free(ring, elems, power)))
        out.append((f"dkos{power}", dual_koszul_free(ring, elems, power)))
    cyc = _modules(ring)[2]
    res = resolution_complex(
        minimal_free_resolution(cyc, 3, Window(w.t_lo - 6, w.t_hi)), w)
    out += [("res", res), ("dres", res.dual()),
            ("dkos_res", dual_koszul_free(ring, elems, 1).tensor(res))]
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
    K, P, sec = homology_space(c, s, t)
    assert (K, P) == reference_homology_space(c, s, t)
    assert P @ sec == SparseMatrix.identity(c.ring.field, P.rows)


@pytest.mark.parametrize("ring,mod,ideal", list(_corpus_modules()))
def test_induced_matches_reference(ring, mod, ideal):
    w = Window(-4, 4)
    towers = [gamma(mod, ideal, w, s_max=5, keep_tower=True),
              completion(mod, ideal, w, s_max=5, keep_tower=True)]
    compared = 0
    for res in towers:
        tower = res.provenance["tower"]
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
                    act = complex_element_action(model, q, s, t, ring)
                    got = induced_on_homology(model, model, s, t, t2, lambda: act)
                    assert got == reference_induced(model, model, s, t, t2, act)
                    compared += bool(got.rows and got.cols)
    assert compared
