"""Graded rings and modules: normal forms, Hilbert functions, resolutions,
Tor/Ext, Matlis duality."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from localduality import graded
from localduality.cli import Environment, corpus, parse
from localduality.exactla import ContractViolation
from localduality.complexes import module_complex
from localduality.duality import (brown_comenetz, is_free_rank_one,
                                  is_shifted_hull)
from localduality.graded import (FreeModule, GradedModule, GradedRing, HomIdeal,
                                 Window, dual_hilbert_function, ext,
                                 hilbert_function, minimal_free_resolution,
                                 poly_matrix_realize, tor)
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


def test_quotient_carries_each_odd_square_once():
    # relations ends with the odd squares, which the quotient adds itself
    ring = GradedRing(3, [("a", -1, True), ("b", -2)], ["b^3"], name="T")
    q = ring.quotient([ring.parse("b^2")], name="Q")
    a2, b2, b3 = {(2, 0): 1}, ring.parse("b^2"), ring.parse("b^3")
    assert q.relations == [b3, b2, a2]
    assert repr(q) == "GradedRing(F3[a:-1', b:-2], 3 relations)"
    assert [q.dim_in_degree(t) for t in range(0, -6, -1)] == [1, 1, 1, 1, 0, 0]


def test_odd_square_terms_of_raw_input_vanish():
    # a monomial with an odd square is 0 in odd characteristic, so a term
    # of one given as a raw dict is dropped: over the free ring, over a
    # quotient ring, in a ring's relations and in a module's relation rows
    gens = [("a", -1, True), ("b", -2)]
    free_ring = GradedRing(3, gens)
    assert free_ring.normal_form({(2, 0): 1}) == {}
    assert free_ring.normal_form({(2, 0): 1, (0, 1): 2}) == {(0, 1): 2}
    ring = GradedRing(3, gens, ["b^3"])
    assert ring.normal_form({(2, 1): 1, (0, 2): 1}) == {(0, 2): 1}
    assert ring.normal_form({(2, 2): 1, (0, 3): 1}) == {}
    # a^2 + b is the relation b
    line = GradedRing(3, gens, [{(2, 0): 1, (0, 1): 1}])
    assert [line.dim_in_degree(t) for t in (0, -1, -2, -3)] == [1, 1, 0, 0]
    # R/(a^2, b) is k[a]/(a^2): the first row is zero and is dropped
    mod = GradedModule(ring, [("u", 0)], [[{(2, 0): 1}], [{(2, 0): 1, (0, 1): 1}]])
    assert mod.relations == [[{(0, 1): 1}]]
    assert [mod.dim_in_degree(t) for t in (0, -1, -2, -3)] == [1, 1, 0, 0]


# two relations over F2[x,y,z] whose Groebner basis gains four elements in
# degrees -7 ... -10; 15 of its S-pairs reach a reduction, the first in
# degree -7, 9 down to -11 and 13 down to -12
RUNAWAY_RELATIONS = ["x^3*y^2 + x*y*z^3", "x*y^3*z + y^4*z"]


def test_runaway_ring_relations_name_the_ring(monkeypatch):
    # with the limit lowered to 10 reductions the ring answers down to
    # -11 and is refused at -12, naming itself.  The relations are y times
    # two coprime quartics, so dim R_t = C(t+2, 2) - dim J_(t-1) for the
    # complete intersection J of the quartics: 78 - 50 at t = -11
    monkeypatch.setattr(graded, "PAIR_LIMIT", 10)
    ring = GradedRing(2, [(n, -1) for n in "xyz"], RUNAWAY_RELATIONS)
    assert [ring.dim_in_degree(t) for t in range(0, -6, -1)] == \
        [1, 3, 6, 10, 15, 19]
    assert ring.dim_in_degree(-11) == 28
    with pytest.raises(ContractViolation, match="^completion runaway: the "
                       "relations of ring R exceeded 10 S-pairs$"):
        ring.dim_in_degree(-12)


def test_pairs_that_reduce_nothing_do_not_count():
    # R/m^2 over F2[x0..x19]: its 210 quadratic monomial relations have
    # 21945 S-pairs, more than PAIR_LIMIT, in degrees -3 and -4, and none
    # reaches a reduction, so R answers in degree -4 too
    names = [f"x{i}" for i in range(20)]
    ring = GradedRing(2, [(n, -1) for n in names],
                      [f"{a}*{b}" for i, a in enumerate(names) for b in names[i:]])
    assert [ring.dim_in_degree(t) for t in (0, -1, -2, -3, -4)] == [1, 20, 0, 0, 0]
    assert ring._ideal._taken == 0


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


def test_krull_dim_reads_a_complete_groebner_basis():
    # Mora's example: the basis element z^17 + y^16*t lies far above the
    # relations' weights, and without it {z, t} looks independent
    S = GradedRing(2, [(v, -1) for v in "xyzt"], [], name="S")
    rels = ["x^5 + y*z^3*t", "x*y^3 + z^4", "x^4*z + y^4*t"]
    assert S.quotient([S.parse(r) for r in rels]).krull_dim() == 2
    assert HomIdeal(S, rels).dim_of_quotient == 2
    assert HomIdeal(S, rels + ["t"]).dim_of_quotient == 1


def reference_basis_in_degree(ring, t):
    """Standard monomials of degree t as `basis_in_degree` found them before
    it pruned: every exponent vector of weight -t, then those no leading
    monomial divides, sorted."""
    if t > 0:
        return []
    weight = -t
    leads = [ring.leading(g)[0] for g in ring.complete(weight) if g]
    out = []

    def rec(i, remaining, acc):
        if i == ring.n:
            if remaining == 0:
                m = tuple(acc)
                if not any(ring.mono_divides(lm, m) for lm in leads):
                    out.append(m)
            return
        w = ring.weights[i]
        top = remaining // w
        if ring.parity[i]:
            top = min(top, 1)
        for e in range(top + 1):
            rec(i + 1, remaining - e * w, acc + [e])

    rec(0, weight, [])
    out.sort(key=ring.order_key)
    return out


def test_basis_in_degree_matches_reference_on_corpus():
    for entry in corpus():
        spec, _ = parse(entry.text)
        ring = Environment(spec).ring("R")
        for t in range(1, -41, -1):
            assert ring.basis_in_degree(t) == reference_basis_in_degree(ring, t), \
                (entry.name, t)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5]),
       st.lists(st.tuples(st.integers(1, 4), st.booleans()), min_size=1, max_size=4),
       st.data())
def test_basis_in_degree_matches_reference_on_monomial_quotients(p, gens, data):
    n = len(gens)
    exps = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
    rels = data.draw(st.lists(exps, max_size=4))
    ring = GradedRing(p, [(f"x{i}", -w, odd) for i, (w, odd) in enumerate(gens)],
                      [{tuple(e): 1} for e in rels])
    for t in range(0, -17, -1):
        assert ring.basis_in_degree(t) == reference_basis_in_degree(ring, t)


def test_basis_in_degree_of_unit_quotient_is_empty():
    ring = GradedRing(2, [("x", -1), ("y", -2)], [{(0, 0): 1}])
    for t in range(0, -5, -1):
        assert ring.basis_in_degree(t) == reference_basis_in_degree(ring, t) == []
    field = GradedRing(2, [], ["1"])
    assert field.basis_in_degree(0) == reference_basis_in_degree(field, 0) == []


@st.composite
def presented_rings(draw):
    """(characteristic, generators, 1-3 homogeneous relations)."""
    p = draw(st.sampled_from([2, 3, 5]))
    gens = [(f"x{i}", -draw(st.integers(1, 2)), draw(st.booleans()))
            for i in range(draw(st.integers(2, 3)))]
    free_ring = GradedRing(p, gens, [])
    rels = []
    for _ in range(draw(st.integers(1, 3))):
        monos = free_ring.basis_in_degree(-draw(st.integers(2, 4)))
        rel = {m: c for m in monos if (c := draw(st.integers(0, p - 1)))}
        if rel:
            rels.append(rel)
    return p, gens, rels


@settings(max_examples=60, deadline=None)
@given(presented_rings(), st.lists(st.integers(0, 8), min_size=1, max_size=3),
       st.randoms(use_true_random=False))
# x0 * f lost its lcm to x0^2 = 0 and was never reduced, so a completion
# resumed from 0 to 6 kept x2^6 standard
@example((3, [("x0", -1, True), ("x1", -2, True), ("x2", -1, False)],
          ["x2^3 + x1*x2 + x0*x1"]), [0, 6], random.Random(0))
def test_resumed_completion_matches_fresh_completion(presented, bounds, rng):
    # one ring completed to rising bounds, its bases and normal forms read
    # in between, against a ring completed from scratch to each bound
    p, gens, rels = presented
    resumed = GradedRing(p, gens, rels)
    free_ring = GradedRing(p, gens, [])
    for bound in sorted(set(bounds)):
        resumed.complete(bound)
        fresh = GradedRing(p, gens, rels)
        fresh.complete(bound)
        for t in range(0, -bound - 1, -1):
            assert resumed.basis_in_degree(t) == fresh.basis_in_degree(t)
            monos = free_ring.basis_in_degree(t)
            q = {m: c for m in monos if (c := rng.randrange(p))}
            assert resumed.normal_form(q) == fresh.normal_form(q)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6))
def test_poly_mul_degree_additive(a, b):
    ring = GradedRing(2, [("x", -1), ("y", -1)], [])
    p = ring.parse(f"x^{a}") if a else ring.one()
    q = ring.parse(f"y^{b}") if b else ring.one()
    prod = ring.poly_mul(p, q)
    assert ring.poly_degree(prod) == -(a + b)


def random_poly(ring, free_ring, weight, data):
    """A homogeneous polynomial of the given weight with random coefficients,
    on monomials without odd squares; None when there is no such monomial."""
    monos = free_ring.basis_in_degree(-weight)
    if not monos:
        return None
    coeffs = data.draw(st.lists(st.integers(0, ring.characteristic - 1),
                                min_size=len(monos), max_size=len(monos)))
    return {m: c for m, c in zip(monos, coeffs) if c}


@settings(max_examples=80, deadline=None)
@given(presented_rings(), st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                                   min_size=1, max_size=4),
       st.data())
def test_times_monomial_matches_normal_form_of_the_product(presented, weights, data):
    # ring answers through its memo; ref, a copy of it, reduces every
    # product as poly_mul then normal_form.  The queries run light, heavy,
    # then light again, so entries stored at a low completion bound are
    # read after the completion went further.
    p, gens, rels = presented
    ring, ref = GradedRing(p, gens, rels), GradedRing(p, gens, rels)
    free_ring = GradedRing(p, gens, [])
    queries = weights + weights[::-1]
    for w_mu, w_p in sorted(weights) + queries:
        mus = free_ring.basis_in_degree(-w_mu)
        q = random_poly(ring, free_ring, w_p, data)
        if not mus or q is None:
            continue
        mu = data.draw(st.sampled_from(mus))
        want = ref.normal_form(ref.poly_mul({mu: 1}, q))
        assert ring.times_monomial(mu, q) == want
        assert free_ring.times_monomial(mu, q) == \
            free_ring.normal_form(free_ring.poly_mul({mu: 1}, q))
    # a ring without relations other than odd squares has no relation
    # ideal and stores nothing; in the one memo of the ring, its ideal's,
    # every stored monomial is reducible and has its fresh normal form
    assert free_ring._ideal is None
    memo = ring._ideal._nf_memo if ring._ideal is not None else {}
    for (_, m), nf in memo.items():
        assert any(ring.mono_divides(lm, m) for lm in ring._leads)
        assert GradedRing(p, gens, rels).normal_form({m: 1}) == \
            {mm: c for (_, mm), c in nf.items()}


def test_times_monomial_keeps_koszul_signs():
    # F3[a, b odd; c]/(a*b*c - c^2): b*a = -a*b, and the memo holds
    # NF(a*b*c) = c^2 with a product sign taken outside it
    ring = GradedRing(3, [("a", -1, True), ("b", -1, True), ("c", -2)],
                      ["a*b*c - c^2"])
    b, ac, abc = (0, 1, 0), ring.parse("a*c"), (1, 1, 1)
    assert ring.times_monomial(b, ac) == ring.normal_form(ring.poly_mul({b: 1}, ac)) \
        == ring.poly_scale(ring.parse("c^2"), -1)
    assert (0, abc) in ring._ideal._nf_memo
    assert ring.times_monomial((1, 0, 0), ring.parse("a*c")) == {}


def test_non_homogeneous_products_are_refused(poly_plane):
    # a monomial times a homogeneous entry is homogeneous, so entries and
    # elements are checked once, before any product
    ring = poly_plane
    mixed = ring.parse("x + y^2")
    one = FreeModule(ring, [0])
    with pytest.raises(ContractViolation):
        poly_matrix_realize(ring, one, one, {(0, 0): mixed}, -1)
    m = GradedModule(ring, [("a", 0)], [["x^3"]])
    with pytest.raises(ContractViolation):
        m.element_action(mixed, 0)


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


def test_koszul_resolution_of_residue_field(poly_plane):
    k = GradedModule.residue_field(poly_plane)
    res = minimal_free_resolution(k, 3)
    assert [st.rank for st in res.stages] == [1, 2, 1, 0]
    assert sorted(res.stages[1].gen_degrees) == [-1, -1]
    assert res.stages[2].gen_degrees == [-2]


def test_pruned_presentation_is_minimal(poly_plane):
    # <u:0, v:-1, w:-2 | x*u + v, y*v + w, x*w> is F2[x,y]/(x^2*y) on u:
    # each constant entry writes a generator through the others, and the
    # rows left lie in m*F
    mod = GradedModule(poly_plane, [("u", 0), ("v", -1), ("w", -2)],
                       [["x", "1", ""], ["", "y", "1"], ["", "", "x"]])
    assert [st.rank for st in minimal_free_resolution(mod, 2).stages] == \
        [3, 3, 0]
    small = mod.pruned()
    assert small.generators == [("u", 0)]
    assert small.relations == [[poly_plane.parse("x^2*y")]]
    assert [st.rank for st in minimal_free_resolution(small, 2).stages] == \
        [1, 1, 0]
    assert all(small.dim_in_degree(t) == mod.dim_in_degree(t)
               for t in range(0, -6, -1))
    assert small.pruned() is small


def test_pruning_keeps_signs():
    # over F3[x,y], x*u + v = 0 writes v = -x*u, so y*v + y*w becomes
    # -x*y*u + y*w
    ring = GradedRing(3, [("x", -1), ("y", -1)], [], name="F3[x,y]")
    mod = GradedModule(ring, [("u", 0), ("v", -1), ("w", -1)],
                       [["x", "1", ""], ["", "y", "y"]])
    small = mod.pruned()
    assert small.generators == [("u", 0), ("w", -1)]
    assert small.relations == [[ring.parse("2*x*y"), ring.parse("y")]]


def test_resolution_is_a_complex(hypersurface, window):
    k = GradedModule.residue_field(hypersurface)
    res = minimal_free_resolution(k, 3)
    for i in range(len(res.diffs) - 1):
        for t in range(window.t_lo, 1):
            a = res.realize_diff(i, t)
            b = res.realize_diff(i + 1, t)
            assert not (a @ b).entries


def test_periodic_resolution_over_hypersurface():
    ring = GradedRing(2, [("z", -1)], [{(2,): 1}], name="F2[z]/(z^2)")
    k = GradedModule.residue_field(ring)
    res = minimal_free_resolution(k, 4)
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
    d = dual_hilbert_function(free(poly_line), window)
    assert all(d.get(t, 0) == 1 for t in range(0, window.t_hi + 1))
    assert all(d.get(t, 0) == 0 for t in range(window.t_lo, 0))


def test_matlis_involution_on_finite_module(window):
    ring = GradedRing(2, [("x", -1)], [])
    m = GradedModule(ring, [("a", 0)], [["x^3"]])
    c = module_complex(m, window)
    dd = brown_comenetz(brown_comenetz(c, window), window)
    assert dd.dims == c.dims
    assert {k: a.entries for k, a in dd.actions.items()} == \
        {k: a.entries for k, a in c.actions.items()}
    # F2[x]/(x^3) is its own hull, socle x^2 in degree -2
    hull = dual_hilbert_function(free(ring), window)
    assert is_shifted_hull(c, hull, -2, Window(-2, 0)) is True
    assert is_shifted_hull(dd, hull, -2, Window(-2, 0)) is True


def test_free_rank_one_negative(poly_line, window):
    b = module_complex(GradedModule(poly_line, [("a", 0)], [["x^20"]]),
                       window)
    # same dims in window but the relation is invisible: still free
    assert is_free_rank_one(b, 0, Window(-8, 0)) is True
    c = module_complex(GradedModule(poly_line, [("a", 0)], [["x^3"]]),
                       window)
    assert is_free_rank_one(c, 0, window) is False
