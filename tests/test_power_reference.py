"""Differential test of pure-power monomial actions against the prefix chain.

`WindowedComplex.monomial_action` builds a power x^k of one generator from
pieces that start or end at aligned block boundaries.  `chain_action` is the
rule every monomial followed before: the action of the last generator after
the action of the prefix, one product per step.  Both must give the same
matrix, and None at the same places: where the power is zero and where the
stored actions do not compose.  With the pieces shared, the first stage of
a tower costs about what a later one does, which a count of matrix products
pins without timing anything.
"""

import random

import pytest

from localduality.complexes import (BLOCK, WindowedComplex, free_tensor,
                                    module_complex)
from localduality.exactla import SparseMatrix
from localduality.graded import GradedModule, GradedRing, Window, maximal_ideal
from localduality.torsion import dual_koszul_free, gamma, koszul_free


def chain_action(X, mono, s, t, memo):
    """x^mono from (s, t) as the prefix chain, memoised in memo."""
    key = (mono, s, t)
    if key in memo:
        return memo[key]
    ring = X.ring
    if not any(mono):
        m = SparseMatrix.identity(ring.field, X.dim(s, t))
    else:
        last = max(i for i, e in enumerate(mono) if e)
        rest = mono[:last] + (mono[last] - 1,) + mono[last + 1:]
        a = X.action(last, s, t + ring.mono_degree(rest))
        if any(rest):
            m = chain_action(X, rest, s, t, memo)
            m = a @ m if m is not None and a.cols == m.rows else None
        else:
            m = a if a.cols == X.dim(s, t) else None
    if m is not None and not m.entries:
        m = None
    memo[key] = m
    return m


KS = range(1, 2 * BLOCK + 2)


def _rings():
    plane = GradedRing(2, [("x", -1), ("y", -1)], [], name="F2[x,y]")
    fat = plane.quotient([plane.parse("x^3"), plane.parse("y^2")],
                         name="F2[x,y]/(x^3,y^2)")
    hyp = plane.quotient([plane.parse("x*y")], name="F2[x,y]/(xy)")
    # odd generators square to zero; c's blocks are 2 * BLOCK degrees long
    odd = GradedRing(3, [("a", -1, True), ("b", -1, True), ("c", -2)], [],
                     name="F3[a',b',c]")
    return plane, fat, hyp, odd


def _cases():
    plane, fat, hyp, odd = _rings()
    # powers from near the top run out of the window, and through the zero
    # degrees of the gap module
    for ring, w in ((plane, Window(-40, 0)), (fat, Window(-12, 0)),
                    (hyp, Window(-40, 0)), (odd, Window(-70, 0))):
        g0, g1 = ring.gen_poly(0), ring.gen_poly(1)
        # u spans degrees 0 and -1 at most, v starts at -6: zero in between
        mods = [GradedModule.free_module(ring, [0], name="R"),
                GradedModule(ring, [("u", 0), ("v", -6)],
                             [[ring.poly_mul(g0, g0) or g0, {}], [g1, {}]],
                             name="gap")]
        for mod in mods:
            yield pytest.param(module_complex(mod, w), id=f"{ring.name}-{mod.name}")
    # free_tensor outputs, whose actions sit at s != 0
    for ring, power in ((plane, 2), (odd, 1)):
        elems = [ring.gen_poly(i) for i in range(ring.n)]
        X = module_complex(GradedModule.free_module(ring, [0]), Window(-44, 0))
        for name, F in (("kos", koszul_free(ring, elems, power)),
                        ("dkos", dual_koszul_free(ring, elems, power))):
            C, _ = free_tensor(F, X, t_floor=-36)
            yield pytest.param(C, id=f"{ring.name}-{name}{power}")


def _queries(X):
    """Every pure power k in KS of every generator from every nonzero
    bidegree, in a seeded order."""
    out = [(g, k, s, t) for (s, t) in X.dims for g in range(X.ring.n) for k in KS]
    random.Random(repr(X)).shuffle(out)
    return out


def _mono(ring, g, k):
    return tuple(k if i == g else 0 for i in range(ring.n))


@pytest.mark.parametrize("X", list(_cases()))
def test_pure_powers_match_the_prefix_chain(X):
    ring = X.ring
    memo = {}
    queries = _queries(X)
    third = len(queries) // 3
    found = 0
    # a third per age of X's memo, then all again: pieces of the ages before
    # are read back as a tower's next stage reads them
    for age, part in enumerate((queries[:third], queries[third:2 * third],
                                queries[2 * third:], queries)):
        for g, k, s, t in part:
            mono = _mono(ring, g, k)
            got = X.monomial_action(mono, s, t)
            assert got == chain_action(X, mono, s, t, memo), (mono, s, t, age)
            found += got is not None
        X.age_monomial_actions()
    assert found


def test_powers_that_do_not_compose_are_none():
    """Stored actions that agree with each other but not with the dimension
    at -BLOCK - 3: the chain compares the dimension only where it starts,
    so a power is None from there and goes through from above, and a split
    at that degree must not decide otherwise."""
    ring = GradedRing(2, [("x", -1), ("y", -1)], [], name="F2[x,y]")
    fld = ring.field
    n = 3 * BLOCK
    dims = {(0, -t): 1 for t in range(n + 1)}
    dims[(0, -BLOCK - 3)] = 2
    actions = {(0, 0, -t): SparseMatrix(fld, 1, 1, {(0, 0): 1})
               for t in range(n)}
    # x from -BLOCK - 3 has one column on a 2-dimensional space
    X = WindowedComplex(ring, dims, {}, actions, 0, 0, 0, Window(-n, 0))
    memo = {}
    nones = 0
    for t in range(0, -n - 1, -1):
        for k in KS:
            mono = (k, 0)
            got = X.monomial_action(mono, 0, t)
            assert got == chain_action(X, mono, 0, t, memo), (k, t)
            nones += got is None
    assert nones


def test_tower_products_grow_slower_than_the_power(monkeypatch):
    """Products made by the tail of Gamma_m F2[x,y] at (-8, 8): the prefix
    chain makes s products per degree in the first stage, 1491 at s_max 20
    and 4251 at 40 (ratio 2.85); aligned blocks make one per degree and a
    chain per boundary."""
    ring = GradedRing(2, [("x", -1), ("y", -1)], [], name="F2[x,y]")
    R = GradedModule.free_module(ring, [0])
    calls = []
    orig = SparseMatrix.matmul

    def counted(a, b):
        calls.append(1)
        return orig(a, b)

    monkeypatch.setattr(SparseMatrix, "matmul", counted)
    monkeypatch.setattr(SparseMatrix, "__matmul__", counted)
    counts = []
    w = Window(-8, 8)
    for s_max in (20, 40):
        # R as a complex, deep enough for stage s_max: the tail rule, whose
        # stages reach the power s_max (a module would get its one stage)
        X = module_complex(R, Window(w.t_lo - 2 * s_max - 1, w.t_hi))
        calls.clear()
        gamma(X, maximal_ideal(ring), w, s_max)
        counts.append(len(calls))
    assert counts[1] < 1.7 * counts[0], counts
