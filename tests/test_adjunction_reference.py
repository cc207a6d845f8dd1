"""The left side of `torsion.adjunction_check` against the loop it replaced.

Hom(D_s (x) F, m') = Kos_s (x) Hom(F, m') for a free resolution F of m, so
the left side is the completion tower of Y = Hom(F, m'), certified by
`torsion._homology_tower`.  `reference_left` is the hand-rolled tower it
replaced: s = 1, 2, ... until three consecutive homology tables agree.  On
the modules of the recollement benchmark's slots, plus the free
F2[x,y]-module and F2[x,y]/(xy), each with its generator in degree 0 and -1,
the loop stabilizes, the completion raises no flag, and the tables agree.
"""

import pytest

from localduality.graded import (GradedModule, GradedRing, HomIdeal, Window,
                                 minimal_free_resolution)
from localduality.torsion import (_ideal_data, completion, default_s_max,
                                  koszul_free)
from localduality.complexes import free_tensor, homology, resolution_complex

W = Window(-6, 6)
RINGS = {"R": [], "Q1": ["y^2"], "Q2": ["x^3"], "Q4": ["x^2", "y^3"]}
MODULES = [("Q1", ("x^2",)), ("Q1", ("x^3",)), ("Q2", ("y^2",)),
           ("Q2", ("y^3",)), ("Q4", ()), ("Q4", ("x^2*y",)),
           ("R", ("x^2", "y^2")), ("R", ("x^2", "y^3")), ("R", ("x^3", "y^2")),
           ("R", ("x^2",)), ("R", ("y^2",)), ("R", ()), ("R", ("x*y",))]


def _rings():
    base = GradedRing(2, [("x", -1), ("y", -1)], [], name="R")
    return {name: base.quotient([base.parse(r) for r in rels], name=name)
            if rels else base for name, rels in RINGS.items()}


def hom_from_resolution(m, m2, p, w, s_max, length=5):
    """Y = Hom(F, m2) over the windows adjunction_check realizes it on."""
    _, total_weight = _ideal_data(p)
    res = minimal_free_resolution(m, length)
    F = resolution_complex(res)
    deepest = -min((d for f in res.stages for d in f.gen_degrees), default=0)
    hom_w = Window(w.t_lo, w.t_hi + s_max * total_weight + deepest + 1)
    return F.hom_into(m2, hom_w, validate=False)


def reference_left(Y, p, w, s_max):
    """The table at which homology(Kos_s (x) Y) first repeats twice, or None
    when it never does by s_max."""
    prev, run = None, 0
    try:
        for s in range(1, s_max + 1):
            H, _ = free_tensor(koszul_free(p.ring, p.gens, s), Y,
                               t_floor=w.t_lo)
            tab = homology(H, w)
            if prev is not None and tab == prev:
                run += 1
                if run >= 2:
                    return tab
            else:
                run = 0
            prev = tab
    finally:
        Y.clear_monomial_actions()
    return None


@pytest.mark.parametrize("deg", [0, -1])
@pytest.mark.parametrize("ring_name,rels", MODULES,
                         ids=[f"{r}/({','.join(rels)})" for r, rels in MODULES])
def test_completion_of_hom_matches_the_stabilized_loop(ring_name, rels, deg):
    ring = _rings()[ring_name]
    m = GradedModule(ring, [("a", deg)], [[r] for r in rels])
    p = HomIdeal(ring, [ring.gen_poly(j) for j in range(ring.n)],
                 is_prime_asserted=True, name="m")
    s_max = default_s_max(W)
    Y = hom_from_resolution(m, m, p, W, s_max)
    want = reference_left(Y, p, W, s_max)
    got = completion(Y, p, W, s_max)
    assert want is not None
    assert not got.flags
    assert got.homotopy == want
