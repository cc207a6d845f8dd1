"""Window monotonicity: values a wider window could change must be flagged.

Every entry a functor reports without a flag at window (-4, 4) must come out
the same at the deeper window (-6, 4), which adds internal degrees below the
floor and, unless the stage cap is fixed, runs the towers for more stages.
"""

import random

import pytest

from localduality.cohom import cohomology_table, local_cohomology
from localduality.graded import GradedModule, GradedRing, Window
from localduality.torsion import completion, gamma, tate
from conftest import max_ideal

NARROW = Window(-4, 4)
WIDE = Window(-6, 4)


def _seeded_cyclic_modules(count=8, seed=4242):
    plane = GradedRing(2, [("x", -1), ("y", -1)], [], name="P")
    hyp = plane.quotient([plane.parse("y^2")], name="H")
    monos = ["x^2", "x*y", "y^2", "x^3", "y^3", "x^2*y"]
    rng = random.Random(seed)
    mods = []
    for i in range(count):
        ring = (plane, hyp)[i % 2]
        rels = sorted(rng.sample(monos, rng.randint(0, 2)))
        rels = [[r] for r in rels if ring.normal_form(ring.parse(r))]
        mods.append(GradedModule(ring, [("a", -rng.randint(0, 1))], rels,
                                 name=f"{ring.name}/{rels}"))
    return mods


def tower_local_cohomology(mod, p, w, s_max=None):
    """H^*_p(mod) read off the Koszul tower, as local_cohomology reads it at
    a non-maximal prime; at the maximal ideal of these rings local_cohomology
    reads local duality, which no window or stage cap cuts."""
    return cohomology_table(gamma(mod, p, w, s_max), p)


def _table(functor, mod, w, s_max=None):
    """(values, flagged keys) of a functor at window w."""
    if functor in (local_cohomology, tower_local_cohomology):
        t = functor(mod, max_ideal(mod.ring), w, s_max)
        return t.entries, set(t.flags)
    r = functor(mod, max_ideal(mod.ring), w, s_max)
    return r.homotopy, set(r.flags)


def _compare(functor, mods, s_max=None):
    """Assert that unflagged entries at NARROW survive at WIDE; return the
    number of unflagged nonzero entries compared and of flagged keys."""
    checked = flagged = 0
    for mod in mods:
        narrow, flags = _table(functor, mod, NARROW, s_max)
        wide, _ = _table(functor, mod, WIDE, s_max)
        keys = {k for k in set(narrow) | set(wide)
                if NARROW.t_lo <= k[1] <= NARROW.t_hi and k not in flags}
        for k in sorted(keys):
            assert narrow.get(k, 0) == wide.get(k, 0), (mod.name, k)
        checked += sum(1 for k in keys if narrow.get(k, 0))
        flagged += len(flags)
    return checked, flagged


FUNCTORS = [gamma, completion, tate, local_cohomology]
TOWERS = [gamma, completion, tate, tower_local_cohomology]


@pytest.mark.parametrize("functor", FUNCTORS, ids=lambda f: f.__name__)
def test_unflagged_entries_survive_widening(functor):
    checked, _ = _compare(functor, _seeded_cyclic_modules())
    assert checked, "no unflagged nonzero entry was compared"


@pytest.mark.parametrize("functor", TOWERS, ids=lambda f: f.__name__)
def test_short_towers_flag_and_unflagged_entries_survive(functor):
    # four tower stages cannot certify every bidegree of (-4, 4), so the
    # narrow run must flag some; the flag side of the contract is then
    # exercised alongside the unflagged one
    plane = GradedRing(2, [("x", -1), ("y", -1)], [], name="P")
    mods = [GradedModule.free_module(plane, [0], name="P"),
            GradedModule(plane, [("a", 0)], [["x^2"]], name="P/(x^2)")]
    checked, flagged = _compare(functor, mods, s_max=4)
    assert checked, "no unflagged nonzero entry was compared"
    assert flagged, "no key was flagged"
