"""Actions are built when first read, and ranks are computed once.

A WindowedComplex takes its actions as a monomial builder: `monomial_action`
builds one matrix on its first read and memoises it, a generator's action
(`action`, `nonzero_action`) is the action of its unit monomial, and the
`actions` view builds every generator action.  Tor and Ext read only
differentials, so they build no action of the complex they realize.  The references below
are the eager loops `shift` and `module_slice` ran before; after a few lazy
reads, the view must hold the same matrices.  `free_tensor` and `cone` are
compared with their eager loops in test_support_reference.py.  The last
reference is `homology` as it was, ranking every differential twice.
"""

import pytest

from localduality import complexes
from localduality.complexes import (ComplexMap, cone, free_tensor, homology,
                                    module_complex, module_slice, shift)
from localduality.duality import brown_comenetz
from localduality.exactla import SparseMatrix, rank
from localduality.graded import GradedModule, GradedRing, Window, ext, tor
from localduality.torsion import dual_koszul_free, koszul_free
from conftest import max_ideal
from test_stage_floor import _seeded_cyclic_modules
from test_tor_ext_reference import M_SHAPE, N_SHAPE, cyclic

PLANE = GradedRing(2, [("x", -1), ("y", -1)], [], name="F2[x,y]")


def reference_shift(c, s_shift, t_shift=0):
    """shift's actions as its eager loop built them: every action of c,
    moved."""
    return {(g, s + s_shift, t + t_shift): m
            for (g, s, t), m in c.actions.items()}


def reference_module_slice(ring, dims, action):
    """module_slice's actions as its eager loop built them."""
    dims = {t: d for t, d in dims.items() if d}
    actions = {}
    for g, gen in enumerate(ring.generators):
        for t in dims:
            if t + gen.degree in dims:
                actions[(g, 0, t)] = action(g, t)
    return {k: m for k, m in actions.items() if m.entries}


def _sorted_keys(actions):
    """The view's order: sorted (s, t), then g."""
    return sorted(actions, key=lambda k: (k[1], k[2], k[0]))


def _module():
    return GradedModule(PLANE, [("u", 0)], [["x^3"], ["x*y^2"]], name="M")


def _koszul_stage():
    mod = _module()
    return free_tensor(koszul_free(PLANE, max_ideal(PLANE).gens, 2),
                       module_complex(mod, Window(-9, 2)), t_floor=-6)[0]


def _unit(ring, g):
    return tuple(int(i == g) for i in range(ring.n))


def _memo_key(c, key):
    """The memo's key of the generator action keyed (g, s, t)."""
    g, s, t = key
    return (_unit(c.ring, g), s, t)


def _identity(c):
    return ComplexMap(c, c, {k: SparseMatrix.identity(c.ring.field, d)
                             for k, d in c.dims.items()})


LAZY = {
    "module_slice": lambda: module_complex(_module(), Window(-6, 2)),
    "free_tensor": _koszul_stage,
    "shift": lambda: shift(_koszul_stage(), 1, -1),
    "cone": lambda: cone(_identity(_koszul_stage())),
    "brown_comenetz": lambda: brown_comenetz(_koszul_stage(), Window(-2, 6)),
}


@pytest.mark.parametrize("name", sorted(LAZY))
def test_reading_one_action_builds_only_that_one(name):
    want = LAZY[name]().actions
    assert len(want) > 1
    for key in (list(want)[-1], list(want)[0]):
        c = LAZY[name]()
        assert not c._monomials
        assert c.action(*key) == want[key]
        assert list(c._monomials) == [_memo_key(c, key)]
        # a second read is the memoised matrix
        assert c.nonzero_action(*key) is c.action(*key)
        assert list(c._monomials) == [_memo_key(c, key)]


@pytest.mark.parametrize("name", sorted(LAZY))
def test_a_zero_action_reads_as_none_and_as_a_zero_matrix(name):
    c = LAZY[name]()
    full = LAZY[name]().actions
    g, s, t = next((g, s, t) for s, t in sorted(c.dims)
                   for g in range(c.ring.n) if (g, s, t) not in full)
    assert c.nonzero_action(g, s, t) is None
    z = c.action(g, s, t)
    assert not z.entries and z.cols == c.dim(s, t)
    # a bidegree that is zero builds nothing
    assert c.nonzero_action(0, c.s_max + 5, t) is None
    assert _memo_key(c, (0, c.s_max + 5, t)) not in c._monomials


def test_shift_view_after_lazy_reads_is_the_eager_loop():
    c = _koszul_stage()
    want = reference_shift(_koszul_stage(), 1, -1)
    got = shift(c, 1, -1)
    for key in list(want)[::-3]:
        got.action(*key)
    actions = got.actions
    assert list(actions) == list(want) == _sorted_keys(want)
    assert actions == want
    # every action is built and memoised: a second view reads the memo
    assert all(got.nonzero_action(*key) is m for key, m in actions.items())
    assert got.actions == actions


@pytest.mark.parametrize("mod", list(_seeded_cyclic_modules()),
                         ids=lambda mod: mod.name)
def test_module_slice_view_after_lazy_reads_is_the_eager_loop(mod):
    """The eager loop listed its keys generator by generator; the view
    lists the same matrices in its own sorted order."""
    w = Window(-6, 2)
    dims = {t: mod.dim_in_degree(t) for t in w.t_range()}
    want = reference_module_slice(mod.ring, dims, mod.generator_action)
    got = module_slice(mod.ring, dims,
                       lambda mono, t: mod.element_action({mono: 1}, t), w,
                       mod.top_degree)
    for key in list(want)[::-2]:
        got.action(*key)
    actions = got.actions
    assert list(actions) == _sorted_keys(want)
    assert actions == want


def test_tor_and_ext_build_no_action_of_the_complex(monkeypatch):
    """The benchmark's Tor/Ext shapes over F2[x0..x3]: every complex Tor
    and Ext realize has a builder, and none of its actions is read."""
    realized = []
    real = complexes.free_tensor

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        realized.append(out[0])
        return out

    monkeypatch.setattr(complexes, "free_tensor", recording)
    ring = GradedRing(2, [(f"x{i}", -1) for i in range(4)], [], name="S")
    tor_w, ext_w = Window(-10, 0, 0, 4), Window(-10, 10, 0, 4)
    k = GradedModule.residue_field(ring)
    M, N = cyclic(ring, M_SHAPE), cyclic(ring, N_SHAPE)
    tor(k, k, tor_w)
    tor(M, k, tor_w)
    tor(N, k, tor_w)
    ext(M, k, ext_w)
    ext(M, N, ext_w)
    assert len(realized) == 5
    assert all(c._build is not None and not c._monomials for c in realized)


# homology ranks each differential once -----------------------------------------


def reference_homology(c, w=None):
    """homology as it was: both differentials at every nonzero bidegree,
    each ranked there."""
    w = w or c.window
    out = {}
    for s in range(c.s_min, c.s_max + 1):
        for t in range(max(w.t_lo, c.window.t_lo), min(w.t_hi, c.window.t_hi) + 1):
            d = c.dim(s, t)
            if d == 0:
                continue
            h = d - rank(c.diff(s, t)) - rank(c.diff(s + 1, t))
            if h:
                out[(s, t)] = h
    return out


@pytest.mark.parametrize("mod", list(_seeded_cyclic_modules()),
                         ids=lambda mod: mod.name)
@pytest.mark.parametrize("koszul", [koszul_free, dual_koszul_free],
                         ids=["lambda", "gamma"])
def test_homology_ranks_each_differential_once(mod, koszul, monkeypatch):
    gens = max_ideal(mod.ring).gens
    C, _ = free_tensor(koszul(mod.ring, gens),
                       module_complex(mod, Window(-12, 2)), t_floor=-6)
    ranked = []

    def recording(m):
        ranked.append(m)
        return rank(m)

    for w in (None, Window(-4, 0)):
        ranked.clear()
        with monkeypatch.context() as mp:
            mp.setattr(complexes, "rank", recording)
            got = homology(C, w)
        assert ranked or w
        # each ranked matrix is a nonzero differential of C, ranked once
        assert len({id(m) for m in ranked}) == len(ranked)
        assert all(m.entries for m in ranked)
        assert {id(m) for m in ranked} <= {id(m) for m in C.diffs.values()}
        assert got == reference_homology(C, w)
