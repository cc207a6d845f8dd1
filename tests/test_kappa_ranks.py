"""Exact kappa(p)-ranks: the generic-rank elimination over R/p, its
refusals, and dual localization on modules whose support misses the
points a small field can see."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from localduality.cohom import generic_ext_ranks
from localduality.duality import dual_localize, gorenstein_certificate
from localduality.exactla import GF, ContractViolation, SparseMatrix, rank
from localduality.graded import GradedModule, GradedRing, HomIdeal, Window
from conftest import free

# x^4*y + x*y^4 vanishes at every point over F_4, but not on the line z = 0
# of F2[x,y,z], nor on the plane F2[x,y]
FROBENIUS = "x^4*y + x*y^4"


@pytest.fixture(scope="module")
def space():
    return GradedRing(2, [("x", -1), ("y", -1), ("z", -1)], [], name="F2[x,y,z]")


@pytest.fixture(scope="module")
def space_certificate(space):
    # the window reaches the socle of F2[x,y,z]; only the verdict and the
    # Krull dimension are read
    return gorenstein_certificate(space, Window(-3, 3))


# regressions: support missed by every F_4-point --------------------------------


def test_module_off_the_support_has_no_ranks(space, space_certificate):
    M = GradedModule(space, [("a", 0)], [[FROBENIUS]])
    zP = HomIdeal(space, ["z"], is_prime_asserted=True, name="(z)")
    rep = dual_localize(M, zP, Window(-6, 6), certificate=space_certificate)
    assert rep["ranks"] == {}
    assert rep["dimension_drop"] == 2


def test_module_on_the_support_keeps_its_ranks(space, space_certificate):
    M = GradedModule(space, [("a", 0)], [[FROBENIUS]])
    xP = HomIdeal(space, ["x"], is_prime_asserted=True, name="(x)")
    rep = dual_localize(M, xP, Window(-6, 6), certificate=space_certificate)
    assert rep["ranks"] == {3: 1, 2: 1}
    assert rep["dimension_drop"] == 2


def test_torsion_module_vanishes_at_the_generic_point(poly_plane, window):
    M = GradedModule(poly_plane, [("a", 0)], [[FROBENIUS]])
    zero = HomIdeal(poly_plane, [], is_prime_asserted=True, name="(0)")
    rep = dual_localize(M, zero, window)
    assert rep["ranks"] == {}
    assert rep["dimension_drop"] == 2


def test_generic_ext_ranks_of_cyclic_modules(poly_plane):
    xP = HomIdeal(poly_plane, ["x"], is_prime_asserted=True, name="(x)")
    assert generic_ext_ranks(free(poly_plane), xP, 2) == {0: 1}
    for rels in (["x^2"], ["x*y"], ["x^2", "x*y"]):
        M = GradedModule(poly_plane, [("a", 0)], [[r] for r in rels])
        assert generic_ext_ranks(M, xP, 2) == {0: 1, 1: 1}, rels
    yP = HomIdeal(poly_plane, ["y"], is_prime_asserted=True, name="(y)")
    M = GradedModule(poly_plane, [("a", 0)], [["x^2"]])
    assert generic_ext_ranks(M, yP, 2) == {}


# an independent oracle: the largest rank at the F_q-points of V(p) ------------

Q = 7


def _evaluate(poly, point):
    total = 0
    for mono, c in poly.items():
        term = c
        for v, e in zip(point, mono):
            term *= v ** e
        total += term
    return total % Q


def _largest_point_rank(ring, rows, zero_var):
    """Over F_q with q above the degree of every minor, a nonzero minor
    does not vanish at every point (Schwartz-Zippel), so the rank over
    Frac(R/p) is the largest rank at the points of V(p)."""
    ranges = [[0] if i == zero_var else range(Q) for i in range(ring.n)]
    best = 0
    for point in itertools.product(*ranges):
        ent = {(i, j): _evaluate(e, point) for i, row in enumerate(rows)
               for j, e in enumerate(row)}
        best = max(best, rank(SparseMatrix(GF(Q), len(rows), len(rows[0]), ent)))
    return best


@st.composite
def graded_matrices(draw):
    """(ring, 2x2 or 3x3 graded matrix with entries of weight <= 2, index of
    the variable spanning p or None for p = (0))."""
    n = draw(st.sampled_from([2, 3]))
    ring = GradedRing(Q, [(v, -1) for v in "xyz"[:n]], [], name="R")
    size = draw(st.sampled_from([2, 3]))
    coeff = st.integers(0, Q - 1)

    def form(weight):
        return {m: c for m in ring.basis_in_degree(-weight)
                if (c := draw(coeff))}

    if draw(st.booleans()):
        # entry (i, j) of weight v_j - u_i in [0, 2]
        u = [draw(st.integers(0, 1)) for _ in range(size)]
        v = [draw(st.integers(1, 2)) for _ in range(size)]
        rows = [[form(v[j] - u[i]) if draw(st.booleans()) else {}
                 for j in range(size)] for i in range(size)]
    else:
        # a sum of outer products of linear forms: rank at most `terms`
        terms = draw(st.integers(1, size - 1))
        rows = [[{} for _ in range(size)] for _ in range(size)]
        for _ in range(terms):
            a = [form(1) for _ in range(size)]
            b = [form(1) for _ in range(size)]
            rows = [[ring.poly_add(rows[i][j], ring.poly_mul(a[i], b[j]))
                     for j in range(size)] for i in range(size)]
    zero_var = draw(st.sampled_from([None] + list(range(n))))
    return ring, rows, zero_var


@settings(max_examples=40, deadline=None)
@given(graded_matrices())
def test_generic_rank_matches_point_oracle(drawn):
    ring, rows, zero_var = drawn
    gens = [] if zero_var is None else [ring.gen_poly(zero_var)]
    p = HomIdeal(ring, gens, is_prime_asserted=True, name="p")
    assert p.generic_rank(rows) == _largest_point_rank(ring, rows, zero_var)


# refusals ----------------------------------------------------------------------


def test_refuses_an_ideal_not_declared_prime(poly_plane, window):
    xP = HomIdeal(poly_plane, ["x"], name="xP")
    with pytest.raises(ContractViolation, match="ideal xP is not declared prime"):
        dual_localize(free(poly_plane), xP, window)


def test_refuses_an_odd_generator_outside_the_prime():
    ring = GradedRing(3, [("a", -1, True), ("b", -2)], [], name="odd_line")
    bP = HomIdeal(ring, ["b"], is_prime_asserted=True, name="bP")
    with pytest.raises(ContractViolation,
                       match="the odd generator a squares to zero"):
        bP.generic_rank([[ring.parse("b")]])


def test_refuses_a_zero_divisor_pair(poly_plane):
    # xy is declared prime, but x * y lies in (xy) while x and y do not
    xyP = HomIdeal(poly_plane, ["x*y"], is_prime_asserted=True, name="xyP")
    x, y = poly_plane.parse("x"), poly_plane.parse("y")
    with pytest.raises(ContractViolation, match=r"\(x\)\*\(y\) lies in it"):
        xyP.generic_rank([[x], [y]])


def test_ideal_membership(poly_plane):
    xP = HomIdeal(poly_plane, ["x"], name="xP")
    assert xP.contains(poly_plane.parse("x*y + x^2"))
    assert not xP.contains(poly_plane.parse("x*y + y^2"))
    assert xP.quotient_ring is xP.quotient_ring
