"""K-polynomial oracle for minimal free resolutions over polynomial rings.

Over a polynomial ring R whose generators have degrees -w_1, ..., -w_n,
H_R(z) = prod 1 / (1 - z^(-w_j)), and a free module with generators in
degrees d has Hilbert series sum z^d * H_R(z).  The resolution is exact and
finite (Hilbert's syzygy theorem: F_(n+1) = 0), so the alternating sum of
its Hilbert series is H_M(z), and

    sum_i (-1)^i sum_(g in F_i) z^(deg g) = H_M(z) * prod (1 - z^(-w_j)).

The coefficient of z^t on the right is sum over subsets S of the
generators of (-1)^|S| dim M_(t + w_S), so both sides are compared in every
degree from the lowest generator degree of the resolution up to M's top
degree; outside that range both sides vanish.  The modules are drawn with a
fixed seed: cyclic ones and ones on two generators, with relation rows of
random homogeneous polynomials.
"""

import itertools
import random

import pytest

from localduality.graded import GradedModule, GradedRing, minimal_free_resolution

RINGS = {
    "F2[x,y]": GradedRing(2, [("x", -1), ("y", -1)], []),
    "F2[x,y:-2]": GradedRing(2, [("x", -1), ("y", -2)], []),
    "F3[x,y,z]": GradedRing(3, [("x", -1), ("y", -1), ("z", -1)], []),
    "F2[c:-2]": GradedRing(2, [("c", -2)], []),
}

DRAWS = 6   # modules per ring


def random_poly(rng, ring, degree):
    """A random homogeneous polynomial of the given degree, maybe zero."""
    monos = ring.basis_in_degree(degree)
    p = ring.characteristic
    return {m: rng.randrange(1, p) for m in monos if rng.random() < 0.5}


def random_module(rng, ring, k):
    """A cyclic module (k even) or one on two generators (k odd)."""
    degrees = [rng.randint(-1, 1)] if k % 2 == 0 else \
        sorted([rng.randint(-2, 1), rng.randint(-2, 1)])
    gens = [(f"g{i}", d) for i, d in enumerate(degrees)]
    rows = []
    for _ in range(rng.randint(2, 4)):
        r = min(degrees) - rng.randint(1, 3)
        row = [random_poly(rng, ring, r - d) for d in degrees]
        if any(row):
            rows.append(row)
    if not rows:
        rows.append([ring.gen_poly(0)] + [{}] * (len(degrees) - 1))
    return GradedModule(ring, gens, rows)


def cases():
    rng = random.Random(20)
    for name, ring in RINGS.items():
        for k in range(DRAWS):
            yield pytest.param(ring, random_module(rng, ring, k),
                               id=f"{name}-{k}")


@pytest.mark.parametrize("ring,mod", list(cases()))
def test_resolution_has_the_k_polynomial_of_the_module(ring, mod):
    n = ring.n
    res = minimal_free_resolution(mod, n + 1)
    assert res.stages[n + 1].rank == 0
    lhs = {}
    for i, stage in enumerate(res.stages):
        for d in stage.gen_degrees:
            lhs[d] = lhs.get(d, 0) + (-1) ** i
    lowest = min(d for stage in res.stages for d in stage.gen_degrees)
    top = mod.top_degree
    # (sign, weight) of each subset S of the generators
    subsets = [((-1) ** size, sum(S)) for size in range(n + 1)
               for S in itertools.combinations(ring.weights, size)]
    for t in range(lowest, top + 1):
        rhs = sum(sgn * mod.dim_in_degree(t + w) for sgn, w in subsets)
        assert lhs.get(t, 0) == rhs, t
    assert all(lowest <= d <= top for d, v in lhs.items() if v)
