"""Differential tests of `graded.tor` and `graded.ext` against reference copies.

`reference_tor` and `reference_ext` assemble F (x) N and Hom(F, N) for a
minimal free resolution F block by block from `element_action`, as `tor` and
`ext` did before they became the homology of `resolution_complex(res)`
realized through `free_tensor`.  Both paths must give identical tables.
"""

import random

from localduality.cli import Environment, corpus, parse
from localduality.exactla import SparseMatrix, rank
from localduality.graded import (GradedModule, GradedRing, Window, ext,
                                 minimal_free_resolution, tor)


# references --------------------------------------------------------------------


def reference_tor(mod1, mod2, w):
    ring = mod1.ring
    length = max(w.s_hi, 0) + 1
    res = minimal_free_resolution(mod1, length)
    out = {}
    for t in w.t_range():
        dims, offsets = [], []
        for st in res.stages:
            offs, acc = [], 0
            for d in st.gen_degrees:
                offs.append(acc)
                acc += mod2.dim_in_degree(t - d)
            offsets.append(offs)
            dims.append(acc)
        mats = []
        for i in range(len(res.stages) - 1):
            src = res.stages[i + 1]
            ent = {}
            for (a, b), p in res.diffs[i].items():
                act = mod2.element_action(p, t - src.gen_degrees[b])
                for (r, c), v in act.entries.items():
                    ent[(offsets[i][a] + r, offsets[i + 1][b] + c)] = v
            mats.append(SparseMatrix(ring.field, dims[i], dims[i + 1], ent))
        for p in range(max(w.s_hi, 0) + 1):
            if p >= len(dims):
                continue
            d_in = rank(mats[p]) if p < len(mats) else 0
            d_out = rank(mats[p - 1]) if p >= 1 else 0
            h = dims[p] - d_in - d_out
            if h and w.s_lo <= p <= w.s_hi:
                out[(p, t)] = h
    return out


def reference_ext(mod1, mod2, w):
    ring = mod1.ring
    length = max(w.s_hi, 0) + 1
    res = minimal_free_resolution(mod1, length)
    out = {}
    for t in w.t_range():
        dims, offsets = [], []
        for st in res.stages:
            offs, acc = [], 0
            for d in st.gen_degrees:
                offs.append(acc)
                acc += mod2.dim_in_degree(t + d)
            offsets.append(offs)
            dims.append(acc)
        mats = []
        for i in range(len(res.stages) - 1):
            tgt = res.stages[i]
            ent = {}
            for (a, b), p in res.diffs[i].items():
                act = mod2.element_action(p, t + tgt.gen_degrees[a])
                for (r, c), v in act.entries.items():
                    ent[(offsets[i + 1][b] + r, offsets[i][a] + c)] = v
            mats.append(SparseMatrix(ring.field, dims[i + 1], dims[i], ent))
        for p in range(max(w.s_hi, 0) + 1):
            if p >= len(dims):
                continue
            d_out = rank(mats[p]) if p < len(mats) else 0
            d_in = rank(mats[p - 1]) if p >= 1 else 0
            h = dims[p] - d_out - d_in
            if h and w.s_lo <= p <= w.s_hi:
                out[(p, t)] = h
    return out


def assert_same(mod1, mod2, w):
    got_tor, got_ext = tor(mod1, mod2, w), ext(mod1, mod2, w)
    assert got_tor == reference_tor(mod1, mod2, w)
    assert got_ext == reference_ext(mod1, mod2, w)
    return got_tor, got_ext


# inputs ------------------------------------------------------------------------


def monomial_text(names, m):
    return "*".join(f"{n}^{e}" for n, e in zip(names, m) if e) or "1"


def cyclic(ring, monos, degree=0):
    names = [g.name for g in ring.generators]
    return GradedModule(ring, [("a", degree)],
                        [[monomial_text(names, m)] for m in monos])


def corpus_rings():
    for entry in corpus():
        spec, diags = parse(entry.text)
        assert spec is not None and not diags
        yield Environment(spec).rings["R"]


def small_modules(ring):
    """Residue field, the ring, S/(x0^2) and a two-generator module with
    generators in degrees 1 and -1."""
    x = ring.gen_poly(0)
    square = GradedModule(ring, [("a", 0)], [[ring.poly_mul(x, x)]])
    shifted = GradedModule(ring, [("u", 1), ("v", -1)], [[x, {}]])
    return [GradedModule.residue_field(ring),
            GradedModule.free_module(ring, [0]), square, shifted]


# tests -------------------------------------------------------------------------


def test_same_as_reference_on_corpus_rings():
    nonzero = 0
    for ring in corpus_rings():
        mods = small_modules(ring)
        for a in mods:
            for b in mods:
                for w in (Window(-5, 3, 0, 3), Window(-5, 3, 1, 2)):
                    tt, ee = assert_same(a, b, w)
                    nonzero += bool(tt) + bool(ee)
    assert nonzero > 200


def test_same_as_reference_odd_characteristic_graded_commutative():
    # every relation is homogeneous in parity as well as in degree; on a
    # relation mixing parities, multiplying by a*b and multiplying by a then
    # by b disagree, and the two paths need not agree either
    ring = GradedRing(3, [("a", -1, True), ("b", -1, True), ("c", -2)], [])
    two = GradedModule(ring, [("u", 0), ("v", -2)],
                       [["c^2", "c"], ["a*c", "2*a"]])
    mixed = GradedModule(ring, [("u", 0)], [["a*b + c"], ["c^2"]])
    k = GradedModule.residue_field(ring)
    for a, b in [(k, k), (two, k), (mixed, two), (two, mixed), (k, mixed)]:
        for w in (Window(-6, 2, 0, 3), Window(-6, 2, 2, 3)):
            assert_same(a, b, w)
    ring5 = GradedRing(5, [("x", -1), ("e", -1, True)], [], name="F5")
    m5 = GradedModule(ring5, [("u", 0)], [["x^2"], ["3*x*e"]])
    n5 = GradedModule(ring5, [("u", 2), ("v", 1)],
                      [["x*e", "e"], ["x^2", "2*x"]])
    k5 = GradedModule.residue_field(ring5)
    for a, b in [(m5, k5), (m5, n5), (n5, m5), (k5, n5)]:
        for w in (Window(-6, 4, 0, 3), Window(-6, 4, 1, 3)):
            assert_same(a, b, w)


# the shapes of the benchmark's Tor/Ext workload over F2[x0..x3]
M_SHAPE = [(1, 1, 0, 0), (0, 0, 2, 0), (0, 1, 0, 2)]
N_SHAPE = [(2, 0, 0, 0), (0, 1, 1, 0)]


def test_same_as_reference_on_benchmark_shapes():
    names = [f"x{i}" for i in range(4)]
    ring = GradedRing(2, [(n, -1) for n in names], [], name="S")
    tor_w, ext_w = Window(-10, 0, 0, 4), Window(-10, 10, 0, 4)
    k = GradedModule.residue_field(ring)
    assert tor(k, k, tor_w) == reference_tor(k, k, tor_w)
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        shapes = []
        for shape in (M_SHAPE, N_SHAPE):
            perm = list(range(4))
            rng.shuffle(perm)
            shapes.append([tuple(m[perm[j]] for j in range(4)) for m in shape])
        M, N = (cyclic(ring, s) for s in shapes)
        assert tor(M, k, tor_w) == reference_tor(M, k, tor_w)
        assert tor(N, k, tor_w) == reference_tor(N, k, tor_w)
        assert ext(M, k, ext_w) == reference_ext(M, k, ext_w)
        assert ext(M, N, ext_w) == reference_ext(M, N, ext_w)
