"""Ring maps, restriction/induction, compactness, the relative dualizing
module and the relative duality comparisons."""

import pytest

from localduality.exactla import ContractViolation
from localduality.graded import GradedModule, GradedRing, HomIdeal, Window, tor
from localduality.relative import (RingMap, coinduce_table,
                                   coinduction_split_check,
                                   compactness_certificate, dualizing_module,
                                   induce, present_model, restrict,
                                   target_module, theorem_bc_check,
                                   transitivity_check)
from localduality.duality import maximal_ideal
from conftest import free, max_ideal


@pytest.fixture
def finite_flat(poly_line, hypersurface):
    # F2[x] -> F2[x,y]/(y^2): finite flat of rank 2, basis {1, y}
    return RingMap(poly_line, hypersurface, ["x"], name="f")


@pytest.fixture
def line_to_plane(poly_line, poly_plane):
    return RingMap(poly_line, poly_plane, ["x"], name="g")


# ring maps --------------------------------------------------------------------


def test_ring_map_validates_degrees(poly_line, poly_plane):
    with pytest.raises(ContractViolation):
        RingMap(poly_line, poly_plane, ["x^2"])


def test_ring_map_validates_relations(poly_line):
    z2 = GradedRing(2, [("z", -1)], [{(2,): 1}], name="F2[z]/(z^2)")
    with pytest.raises(ContractViolation):
        # x has no relations but x -> z would need... reversed direction:
        RingMap(z2, poly_line, ["x"])  # z^2 = 0 must push to 0, x^2 != 0


def test_push_is_multiplicative(finite_flat):
    f = finite_flat
    assert f.push("x^3") == f.target.normal_form(f.target.parse("x^3"))
    assert f.push({(2,): 1}) == f.target.parse("x^2")


# restriction and induction ----------------------------------------------------


def test_restrict_target_is_free_rank_two(finite_flat, window):
    rst = restrict(finite_flat, target_module(finite_flat), window)
    assert rst.finite
    degs = sorted(g[1] for g in rst.module.generators)
    assert degs == [-1, 0]          # basis {1, y}
    assert not rst.module.relations


def test_restrict_residue_field(finite_flat, window):
    k = GradedModule.residue_field(finite_flat.target)
    rst = restrict(finite_flat, k, window)
    dims = {t: rst.module.dim_in_degree(t) for t in range(-3, 1)}
    assert dims == {0: 1, -1: 0, -2: 0, -3: 0}


def test_restrict_keeps_signs_of_odd_products():
    # E = F3[a, b odd; c]: a*b and b*a differ by a sign, so the presentation
    # must multiply by a monomial's factors in the order the module does
    E = GradedRing(3, [("a", -1, True), ("b", -1, True), ("c", -2)],
                   name="E")
    mod = GradedModule(E, [("u", 0)], [["a*b - c"]], name="M")
    w = Window(-6, 0)
    rst = restrict(RingMap.identity(E), mod, w)
    assert rst.finite and not rst.flags
    P = rst.module
    for t in w.t_range():
        # the evaluation of P's basis in M's basis; an isomorphism
        iso_t = rst.eval_matrix(t).to_dense()
        free_cols = _standard_columns(P, t)
        iso_t = [[row[c] for c in free_cols] for row in iso_t]
        assert len(iso_t) == mod.dim_in_degree(t) == len(free_cols)
        for deg in range(-4, 0):
            t2 = t + deg
            if t2 < w.t_lo:
                continue
            iso_t2 = rst.eval_matrix(t2).to_dense()
            free2 = _standard_columns(P, t2)
            iso_t2 = [[row[c] for c in free2] for row in iso_t2]
            for mono in E.basis_in_degree(deg):
                p_act = P.element_action({mono: 1}, t).to_dense()
                m_act = mod.element_action({mono: 1}, t).to_dense()
                lhs = _matmul(iso_t2, p_act, 3, len(free_cols))
                rhs = _matmul(m_act, iso_t, 3, len(free_cols))
                assert lhs == rhs, (E.poly_str({mono: 1}), t)


def _standard_columns(mod, t):
    """The columns of mod's free basis in degree t that are standard
    monomials, the basis of mod in degree t."""
    standard = set(mod._gb.standard(t))
    return [c for c, bm in enumerate(mod.free.basis_in_degree(t))
            if bm in standard]


def _matmul(a, b, p, cols):
    return [[sum(x * b[k][j] for k, x in enumerate(row)) % p
             for j in range(cols)] for row in a]


def test_induce_pushes_relations(finite_flat):
    m = GradedModule(finite_flat.source, [("a", 0)], [["x^2"]])
    fm = induce(finite_flat, m)
    assert fm.ring is finite_flat.target
    assert [fm.dim_in_degree(-t) for t in range(4)] == [1, 2, 1, 0]


# compactness ------------------------------------------------------------------


def test_compactness_finite_flat(finite_flat, window):
    rep = compactness_certificate(finite_flat, window)
    assert rep["certified"]
    assert rep["ranks"][0] == 2 and rep["ranks"][-1] == 0


def test_compactness_refuses_infinite(line_to_plane, window):
    rep = compactness_certificate(line_to_plane, window)
    assert not rep["certified"]
    assert "stabilize" in rep["reason"]


def test_compactness_of_identity(poly_line, window):
    rep = compactness_certificate(RingMap.identity(poly_line), window)
    assert rep["certified"] and rep["ranks"][0] == 1 and 0 in rep["ranks"]


def test_unit_map_compact_iff_finite_dimensional(poly_line, window):
    rep = compactness_certificate(RingMap.unit(poly_line), window)
    assert not rep["certified"]
    art = GradedRing(2, [("z", -1)], [{(3,): 1}], name="A")
    rep2 = compactness_certificate(RingMap.unit(art), window)
    assert rep2["certified"]


# the relative dualizing module ------------------------------------------------


def test_omega_finite_flat(finite_flat, window):
    om = dualizing_module(finite_flat, window)
    assert om.invertible
    assert om.stage == 0
    assert om.gen_degree == 1       # omega_f = Sigma^1 S
    assert not om.flags


def test_omega_leaves_the_compactness_certificate_alone(finite_flat, window):
    comp = compactness_certificate(finite_flat, window)
    res = comp["resolution"]
    stages, diffs = list(res.stages), list(res.diffs)
    assert stages[-1].rank == 0     # a certified resolution ends in zero
    om = dualizing_module(finite_flat, window, compactness=comp)
    assert res.stages == stages and res.diffs == diffs
    fresh = dualizing_module(finite_flat, window)
    assert (om.ext_table, om.stage, om.gen_degree, om.invertible,
            om.certificate, om.flags) == \
        (fresh.ext_table, fresh.stage, fresh.gen_degree, fresh.invertible,
         fresh.certificate, fresh.flags)


def test_omega_of_identity(poly_line, window):
    om = dualizing_module(RingMap.identity(poly_line), window)
    assert om.invertible and om.stage == 0 and om.gen_degree == 0


def test_omega_hypersurface_section(window):
    # F2[z] -> F2[z]/(z^2): perfect of projective dimension 1,
    # omega = Sigma^2 S in homological stage -1
    line = GradedRing(2, [("z", -1)], [], name="F2[z]")
    z2 = GradedRing(2, [("z", -1)], [{(2,): 1}], name="F2[z]/(z^2)")
    f = RingMap(line, z2, ["z"], name="q")
    om = dualizing_module(f, window)
    assert om.invertible
    assert om.stage == -1 and om.gen_degree == 2


# coinduction and Grothendieck-Neeman ------------------------------------------


def test_coinduce_of_source_free(finite_flat, window):
    tab = coinduce_table(finite_flat, free(finite_flat.source), window)
    stable = {k: v for k, v in tab.items()
              if v and window.t_lo + 3 <= k[1] <= 0}
    # Hom_R(S, R) = Sigma^1 S as an R-module: rank 2 over R per pair of degrees
    assert stable
    assert all(s == 0 for (s, _t) in stable)


def grothendieck_neeman_check(f, x, w):
    """Coinduction of x against extension of scalars twisted by omega_f."""
    compactness = compactness_certificate(f, w)
    omega = dualizing_module(f, w, compactness=compactness)
    if not omega.invertible or omega.module is None:
        raise ContractViolation("omega_f is not certified invertible")
    guard = compactness["restricted"].guard
    lhs = coinduce_table(f, x, w)
    j0 = -omega.stage
    a = omega.gen_degree
    fx = induce(f, x)
    tt = tor(fx, omega.module, w)
    lo = w.t_lo + guard + max(a, 0)
    lhs_tot = {}
    for (s, t), v in lhs.items():
        n = s + t
        if lo <= n <= w.t_hi:
            lhs_tot[n] = lhs_tot.get(n, 0) + v
    rhs_tot = {}
    for (p, t), v in tt.items():
        n = t - p - j0
        if lo <= n <= w.t_hi:
            rhs_tot[n] = rhs_tot.get(n, 0) + v
    verdict = all(lhs_tot.get(n, 0) == rhs_tot.get(n, 0)
                  for n in range(lo, w.t_hi + 1))
    return {"verdict": verdict, "lhs": lhs_tot, "rhs": rhs_tot,
            "range": (lo, w.t_hi)}


def test_grothendieck_neeman(finite_flat, window):
    rep = grothendieck_neeman_check(finite_flat, free(finite_flat.source),
                                    window)
    assert rep["verdict"], rep


# coinduction splitting --------------------------------------------------------


def test_coinduction_split_exact(finite_flat, window):
    q = max_ideal(finite_flat.source)
    fiber = [maximal_ideal(finite_flat.target)]
    rep = coinduction_split_check(finite_flat, q, fiber, window)
    assert rep["mode"] == "exact"
    assert rep["verdict"] and rep["gamma_route"] and rep["matlis_route"]


def test_coinduction_split_validates_fiber(finite_flat, window):
    q = max_ideal(finite_flat.source)
    S = finite_flat.target
    bad = HomIdeal(S, [S.parse("y")], is_prime_asserted=True, name="(y)")
    with pytest.raises(ContractViolation):
        coinduction_split_check(finite_flat, q, [bad], window)


# the duality comparison -------------------------------------------------------


def test_bc_exact_mode(finite_flat, window):
    m = maximal_ideal(finite_flat.target)
    rep = theorem_bc_check(finite_flat, m, window)
    assert rep["verdict"], rep
    assert rep["mode"] == "exact"


def test_bc_kappa_mode(finite_flat, window):
    S = finite_flat.target
    p = HomIdeal(S, [S.parse("y")], is_prime_asserted=True, name="(y)")
    rep = theorem_bc_check(finite_flat, p, window)
    assert rep["verdict"], rep
    assert rep["mode"] == "kappa(p)-rank"


def test_bc_degenerates_to_absolute(poly_line, window):
    f = RingMap.identity(poly_line)
    rep = theorem_bc_check(f, maximal_ideal(poly_line), window)
    assert rep["verdict"], rep


@pytest.mark.parametrize("rel", ["y^3", "y^4"])
def test_bc_on_identity_of_gorenstein_hypersurfaces(poly_plane, window, rel):
    # each comparison stops where the hull's Hilbert function on the window
    # ends, at w.t_hi + b for its socle degree b
    ring = poly_plane.quotient([poly_plane.parse(rel)], name=f"R/({rel})")
    rep = theorem_bc_check(RingMap.identity(ring), maximal_ideal(ring), window)
    assert rep["twisted_comparison"] is True, rep
    assert rep["omega_comparison"] is True, rep
    nu, n, j0 = rep["nu"], rep["krull_dim"], rep["j0"]
    for key, b in (("twisted_window", nu + n + j0), ("omega_window", nu + n)):
        lo, hi = rep[key]
        assert window.t_lo + b <= lo <= hi <= window.t_hi + b, key


def test_bc_refuses_non_gorenstein_source(window):
    base = GradedRing(2, [("x", -1), ("y", -1)], [])
    ng = base.quotient([base.parse("x^2"), base.parse("x*y"),
                        base.parse("y^2")], name="FP")
    f = RingMap.identity(ng)
    with pytest.raises(ContractViolation, match="condition \\(1\\)"):
        theorem_bc_check(f, maximal_ideal(ng), window)


def test_bc_refuses_noncompact(line_to_plane, window):
    with pytest.raises(ContractViolation, match="condition \\(2\\)"):
        theorem_bc_check(line_to_plane, maximal_ideal(line_to_plane.target),
                         window)


# transitivity -----------------------------------------------------------------


def test_transitivity_on_artinian_tower(window):
    art = GradedRing(2, [("x", -1)], [{(3,): 1}], name="F2[x]/(x^3)")
    r = RingMap.unit(art)
    f = RingMap.identity(art)
    rep = transitivity_check(r, f, window)
    assert rep["verdict"], rep


def test_transitivity_refuses_noncompact_base(poly_line, window):
    r = RingMap.unit(poly_line)
    f = RingMap.identity(poly_line)
    with pytest.raises(ContractViolation):
        transitivity_check(r, f, window)
