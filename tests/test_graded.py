"""Graded rings and modules: normal forms, Hilbert functions, resolutions,
Tor/Ext, Matlis duality."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from localduality.exactla import ContractViolation
from localduality.graded import (DegreewiseModel, GradedModule, GradedRing,
                                 HomIdeal, Window, ext, hilbert_function,
                                 matlis_dual, minimal_free_resolution,
                                 models_isomorphic, tor)
from conftest import free, max_ideal


# rings ----------------------------------------------------------------------


def test_connectedness_enforced():
    with pytest.raises(ContractViolation):
        GradedRing(2, [("x", 0)], [])
    with pytest.raises(ContractViolation):
        GradedRing(2, [("x", 1)], [])


def test_polynomial_hilbert(poly_plane):
    # F2[x,y]: dim_{-t} = t + 1
    for t in range(0, 7):
        assert poly_plane.dim_in_degree(-t) == t + 1
    assert poly_plane.dim_in_degree(1) == 0


def test_quotient_hilbert(hypersurface):
    # F2[x,y]/(y^2): 1, 2, 2, 2, ...
    dims = [hypersurface.dim_in_degree(-t) for t in range(5)]
    assert dims == [1, 2, 2, 2, 2]


def test_normal_form_idempotent(hypersurface):
    p = hypersurface.parse("x*y + y^2")
    nf = hypersurface.normal_form(p)
    assert hypersurface.normal_form(nf) == nf
    assert hypersurface.poly_str(nf) == "x*y"


def test_odd_generator_squares_to_zero():
    ring = GradedRing(3, [("a", -1, True), ("b", -2)], [])
    assert not ring.normal_form(ring.parse("a^2"))
    # graded commutativity: ab = -ba handled by canonical ordering
    assert ring.normal_form(ring.parse("a*b")) == ring.parse("a*b")


def test_krull_dim():
    line = GradedRing(2, [("x", -1)], [])
    assert line.krull_dim() == 1
    plane = GradedRing(2, [("x", -1), ("y", -1)], [])
    assert plane.krull_dim() == 2
    hyp = plane.quotient([plane.parse("y^2")])
    assert hyp.krull_dim() == 1
    art = plane.quotient([plane.parse("x^2"), plane.parse("x*y"),
                          plane.parse("y^2")])
    assert art.krull_dim() == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6))
def test_poly_mul_degree_additive(a, b):
    ring = GradedRing(2, [("x", -1), ("y", -1)], [])
    p = ring.parse(f"x^{a}") if a else ring.one()
    q = ring.parse(f"y^{b}") if b else ring.one()
    prod = ring.poly_mul(p, q)
    assert ring.poly_degree(prod) == -(a + b)


# modules --------------------------------------------------------------------


def test_residue_field(poly_plane):
    k = GradedModule.residue_field(poly_plane)
    assert k.dim_in_degree(0) == 1
    assert k.dim_in_degree(-1) == 0


def test_cyclic_module_hilbert(poly_line):
    m = GradedModule(poly_line, [("a", 0)], [["x^3"]])
    assert [m.dim_in_degree(-t) for t in range(5)] == [1, 1, 1, 0, 0]


def test_element_action_squares(poly_line):
    m = GradedModule(poly_line, [("a", 0)], [["x^3"]])
    x = poly_line.parse("x")
    a2 = m.element_action(poly_line.parse("x^2"), 0)
    step = m.element_action(x, -1) @ m.element_action(x, 0)
    assert a2.to_dense() == step.to_dense()


def test_mixed_parity_relation_row_is_refused():
    # F3[a, b odd, c]: a*u is odd, 2*v is even; with generators carrying no
    # parity, multiplying by a*b and by a then b would disagree on this module
    ring = GradedRing(3, [("a", -1, True), ("b", -1, True), ("c", -2)], [])
    with pytest.raises(ContractViolation) as err:
        GradedModule(ring, [("u", 0), ("v", -1)], [["a", "2"], ["c", "b"]])
    assert str(err.value) == "relation row 1 mixes parities: a*u is odd but 2*v is even"
    with pytest.raises(ContractViolation, match="row 2 .* c\\*u is even but b\\*v is odd"):
        GradedModule(ring, [("u", 0), ("v", -1)], [["c^2", "0"], ["c", "b"]])
    # within one entry, too, where an even generator has odd degree
    ring_x = GradedRing(3, [("a", -1, True), ("b", -1, True), ("x", -1)], [])
    with pytest.raises(ContractViolation, match="row 2 mixes parities"):
        GradedModule(ring_x, [("u", 0)], [["a*b"], ["a + x"]])
    # parity-homogeneous rows are accepted, odd rows included
    GradedModule(ring, [("u", 0), ("v", 0)], [["a", "b"], ["c", "a*b"]])


def test_mixed_parity_is_harmless_with_one_odd_generator():
    # no product carries a sign, so a mixed row presents a consistent module
    ring = GradedRing(5, [("x", -1), ("e", -1, True)], [])
    mod = GradedModule(ring, [("u", 0), ("v", 0)], [["e", "x"], ["x^2", "3*x*e"]])
    for t in range(0, -6, -1):
        xe = mod.element_action("x*e", t)
        assert xe == mod.generator_action(1, t - 1) @ mod.generator_action(0, t)
        assert xe == mod.generator_action(0, t - 1) @ mod.generator_action(1, t)
    # parity is invisible in characteristic 2
    GradedModule(GradedRing(2, [("a", -1, True), ("b", -1, True)], []),
                 [("u", 0), ("v", -1)], [["a", "1"]])


# resolutions ----------------------------------------------------------------


def test_koszul_resolution_of_residue_field(poly_plane, window):
    k = GradedModule.residue_field(poly_plane)
    res = minimal_free_resolution(k, 3, window)
    assert [st.rank for st in res.stages] == [1, 2, 1, 0]
    assert sorted(res.stages[1].gen_degrees) == [-1, -1]
    assert res.stages[2].gen_degrees == [-2]


def test_resolution_is_a_complex(hypersurface, window):
    k = GradedModule.residue_field(hypersurface)
    res = minimal_free_resolution(k, 3, window)
    for i in range(len(res.diffs) - 1):
        for t in range(window.t_lo, 1):
            a = res.realize_diff(i, t)
            b = res.realize_diff(i + 1, t)
            assert not (a @ b).entries


def test_periodic_resolution_over_hypersurface(window):
    ring = GradedRing(2, [("z", -1)], [{(2,): 1}], name="F2[z]/(z^2)")
    k = GradedModule.residue_field(ring)
    res = minimal_free_resolution(k, 4, window)
    assert [st.rank for st in res.stages] == [1, 1, 1, 1, 1]


# tor / ext ------------------------------------------------------------------


def test_tor_of_residue_fields(poly_plane, window):
    k = GradedModule.residue_field(poly_plane)
    tt = tor(k, k, Window(-8, 8, 0, 3))
    # exterior algebra on two generators of degree -1
    expect = {(0, 0): 1, (1, -1): 2, (2, -2): 1}
    assert {k_: v for k_, v in tt.items() if v} == expect


def test_ext_of_residue_field_into_ring(poly_line, window):
    k = GradedModule.residue_field(poly_line)
    R = free(poly_line)
    ee = ext(k, R, Window(-8, 8, 0, 2))
    assert {k_: v for k_, v in ee.items() if v} == {(1, 1): 1}


def test_tor_symmetry(hypersurface, window):
    a = GradedModule(hypersurface, [("a", 0)], [["x"]])
    b = GradedModule(hypersurface, [("b", -1)], [["y"]])
    wt = Window(window.t_lo, window.t_hi, 0, 2)
    ta = tor(a, b, wt)
    tb = tor(b, a, wt)
    interior = range(window.t_lo + 3, 1)
    for p in range(3):
        for t in interior:
            assert ta.get((p, t), 0) == tb.get((p, t), 0)


# Matlis duality -------------------------------------------------------------


def test_matlis_dual_dims(poly_line, window):
    d = matlis_dual(free(poly_line), window)
    assert all(d.dim(t) == 1 for t in range(0, window.t_hi + 1))
    assert all(d.dim(t) == 0 for t in range(window.t_lo, 0))


def test_matlis_involution_on_finite_module(window):
    ring = GradedRing(2, [("x", -1)], [])
    m = GradedModule(ring, [("a", 0)], [["x^3"]])
    dd = matlis_dual(matlis_dual(m, window), window)
    target = DegreewiseModel.of_module(m, window)
    assert dict(dd.dims) == dict(target.dims)
    assert models_isomorphic(dd, target, window)


def test_models_isomorphic_negative(poly_line, window):
    a = DegreewiseModel.of_module(free(poly_line, [0]), window)
    b = DegreewiseModel.of_module(
        GradedModule(poly_line, [("a", 0)],
                     [["x^20"]]), window)
    # same dims in window but the relation is invisible: still isomorphic
    assert models_isomorphic(a, b, Window(-8, 0))
    c = DegreewiseModel.of_module(
        GradedModule(poly_line, [("a", 0)], [["x^3"]]), window)
    assert not models_isomorphic(a, c, window)
