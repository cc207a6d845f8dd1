"""Differential test of monomial actions against the prefix chain.

Each complex builds x^a from its parts: a module off its Groebner
staircase, F (x) X from X's own x^a in every block, a cone from its two
sides, a shift and a Brown-Comenetz dual from the complex they come from,
and the homology model as the induced map of x^a on the complex.
`chain_action` is the rule every monomial followed before: the action of
the last generator after the action of the prefix, one product per step,
read off the generator actions alone.  Both must give the same matrix, and
None at the same places: where the monomial is zero and where the stored
actions do not compose.  Over F3[a', b', c] the product a'b' pins the sign
the dual gives a monomial with two odd factors.
"""

import itertools
import random

import pytest

from localduality.complexes import (WindowedComplex, free_tensor, homology,
                                    module_complex, shift)
from localduality.duality import brown_comenetz, homology_model
from localduality.exactla import SparseMatrix
from localduality.graded import (GradedModule, GradedRing, HomIdeal, Window,
                                 maximal_ideal)
from localduality.torsion import (dual_koszul_free, gamma, koszul_free,
                                  localize_away)


def chain_action(gens, X, mono, s, t, memo):
    """x^mono from (s, t) as the prefix chain of the generator actions
    gens {(g, s, t): matrix}, memoised in memo."""
    key = (mono, s, t)
    if key in memo:
        return memo[key]
    ring = X.ring
    if not any(mono):
        m = SparseMatrix.identity(ring.field, X.dim(s, t))
    else:
        last = max(i for i, e in enumerate(mono) if e)
        rest = mono[:last] + (mono[last] - 1,) + mono[last + 1:]
        a = gens.get((last, s, t + ring.mono_degree(rest)))
        if a is None:
            m = None
        elif any(rest):
            m = chain_action(gens, X, rest, s, t, memo)
            m = a @ m if m is not None and a.cols == m.rows else None
        else:
            m = a if a.cols == X.dim(s, t) else None
    if m is not None and not m.entries:
        m = None
    memo[key] = m
    return m


# pure powers up to x^33, and every mixed monomial of exponents up to 3
KS = range(1, 34)
MIXED = range(4)


def _rings():
    plane = GradedRing(2, [("x", -1), ("y", -1)], [], name="F2[x,y]")
    fat = plane.quotient([plane.parse("x^3"), plane.parse("y^2")],
                         name="F2[x,y]/(x^3,y^2)")
    hyp = plane.quotient([plane.parse("x*y")], name="F2[x,y]/(xy)")
    # odd generators square to zero
    odd = GradedRing(3, [("a", -1, True), ("b", -1, True), ("c", -2)], [],
                     name="F3[a',b',c]")
    return plane, fat, hyp, odd


def _modules(ring):
    g0, g1 = ring.gen_poly(0), ring.gen_poly(1)
    # u spans degrees 0 and -1 at most, v starts at -6: zero in between
    return [GradedModule.free_module(ring, [0], name="R"),
            GradedModule(ring, [("u", 0), ("v", -6)],
                         [[ring.poly_mul(g0, g0) or g0, {}], [g1, {}]],
                         name="gap")]


def _cases():
    plane, fat, hyp, odd = _rings()
    # powers from near the top run out of the window, and through the zero
    # degrees of the gap module
    for ring, w in ((plane, Window(-40, 0)), (fat, Window(-12, 0)),
                    (hyp, Window(-40, 0)), (odd, Window(-70, 0))):
        for mod in _modules(ring):
            yield pytest.param(lambda mod=mod, w=w: module_complex(mod, w),
                               id=f"{ring.name}-{mod.name}")
    # free_tensor outputs, whose actions sit at s != 0
    for ring, power in ((plane, 2), (odd, 1)):
        elems = [ring.gen_poly(i) for i in range(ring.n)]
        for name, koszul in (("kos", koszul_free), ("dkos", dual_koszul_free)):
            def tensor(ring=ring, F=koszul(ring, elems, power)):
                X = module_complex(GradedModule.free_module(ring, [0]),
                                   Window(-44, 0))
                return free_tensor(F, X, t_floor=-36)[0]
            yield pytest.param(tensor, id=f"{ring.name}-{name}{power}")
    # the functors' models over every ring, at the ideal of its even
    # generators: L = cone(Gamma m -> m), its shift, the dual of Gamma m and
    # of the module, and the homology of Gamma m with its induced actions
    w = Window(-4, 4)
    for ring in (plane, fat, hyp, odd):
        p = HomIdeal(ring, [ring.gen_poly(i) for i in range(ring.n)
                            if not ring.parity[i]], name="p")
        for mod in _modules(ring):
            name = f"{ring.name}-{mod.name}"
            yield pytest.param(
                lambda mod=mod, p=p: localize_away(mod, p, w, 4).model,
                id=f"{name}-cone")
            yield pytest.param(
                lambda mod=mod, p=p: shift(localize_away(mod, p, w, 4).model,
                                           1, -1), id=f"{name}-shift")
            yield pytest.param(
                lambda mod=mod, p=p: brown_comenetz(gamma(mod, p, w, 4).model,
                                                    w), id=f"{name}-dual-gamma")
            yield pytest.param(
                lambda mod=mod: brown_comenetz(
                    module_complex(mod, Window(-8, 0)), Window(0, 8)),
                id=f"{name}-dual")
            yield pytest.param(
                lambda mod=mod, p=p: _homology_of_gamma(mod, p, w),
                id=f"{name}-homology")


def _homology_of_gamma(mod, p, w):
    """The homology model of Gamma m at its largest homological degree."""
    model = gamma(mod, p, w, 4).model
    size = {}
    for (s, t), d in homology(model, w).items():
        size[s] = size.get(s, 0) + d
    return homology_model(model, max(size, key=lambda s: (size[s], s)), w)


def _monomials(ring):
    """Every pure power in KS and every mixed monomial in MIXED."""
    pure = [tuple(k if i == g else 0 for i in range(ring.n))
            for g in range(ring.n) for k in KS]
    mixed = [m for m in itertools.product(MIXED, repeat=ring.n)
             if sum(1 for e in m if e) > 1]
    return pure + mixed


def _queries(X):
    """Every monomial of _monomials from every nonzero bidegree, in a
    seeded order."""
    ring = X.ring
    out = [(mono, s, t) for (s, t) in X.dims for mono in _monomials(ring)]
    random.Random(repr(X)).shuffle(out)
    return out


@pytest.mark.parametrize("build", list(_cases()))
def test_monomials_match_the_prefix_chain(build):
    X = build()
    gens = X.actions
    memo = {}
    queries = _queries(X)
    found = 0
    # read every query, then read them again after the memo is cleared
    for rnd in range(2):
        for mono, s, t in queries:
            got = X.monomial_action(mono, s, t)
            assert got == chain_action(gens, X, mono, s, t, memo), \
                (mono, s, t, rnd)
            found += got is not None
        X.clear_monomial_actions()
    assert found


def test_powers_that_do_not_compose_are_none():
    """Stored actions that agree with each other but not with the dimension
    at -19: the chain compares the dimension only where it starts, so a
    power is None from there and goes through from above."""
    ring = GradedRing(2, [("x", -1), ("y", -1)], [], name="F2[x,y]")
    fld = ring.field
    n = 48
    dims = {(0, -t): 1 for t in range(n + 1)}
    dims[(0, -19)] = 2
    actions = {(0, 0, -t): SparseMatrix(fld, 1, 1, {(0, 0): 1})
               for t in range(n)}
    # x from -19 has one column on a 2-dimensional space
    X = WindowedComplex(ring, dims, {}, actions, 0, 0, 0, Window(-n, 0))
    memo = {}
    nones = 0
    for t in range(0, -n - 1, -1):
        for k in KS:
            mono = (k, 0)
            got = X.monomial_action(mono, 0, t)
            assert got == chain_action(actions, X, mono, 0, t, memo), (k, t)
            nones += got is None
    assert nones


def test_tower_products_grow_slower_than_the_power(monkeypatch):
    """Products made by the tail of Gamma_m F2[x,y] at (-8, 8): the prefix
    chain makes s products per degree in the first stage, 1491 at s_max 20
    and 4251 at 40 (ratio 2.85); read off the staircase and copied into
    blocks, a power makes no product at all."""
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
