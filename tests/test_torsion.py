"""Torsion, localization, completion, the Tate construction and the
recollement property suite."""

import random

import pytest

from localduality.graded import GradedModule, GradedRing, HomIdeal, Window
from localduality.torsion import (SpecSubset, adjunction_check,
                                  check_recollement, completion, delta,
                                  fracture_check, gamma,
                                  local_to_global_acyclicity, localize_away,
                                  tate, telescope_invert)
from localduality.complexes import WindowedComplex, module_complex
from conftest import free, max_ideal


# functor tables on the polynomial line --------------------------------------


def test_gamma_of_ring(poly_line, window):
    m = max_ideal(poly_line)
    g = gamma(free(poly_line), m, window)
    stable = {k: v for k, v in g.table().items() if v}
    assert stable == {(-1, t): 1 for t in range(1, window.t_hi + 1)}


def test_gamma_of_residue_field(poly_line, window):
    m = max_ideal(poly_line)
    g = gamma(GradedModule.residue_field(poly_line), m, window)
    assert {k: v for k, v in g.table().items() if v} == {(0, 0): 1}


def test_localization_is_laurent(poly_line, window):
    m = max_ideal(poly_line)
    L = localize_away(free(poly_line), m, window)
    stable = {k: v for k, v in L.table().items() if v}
    assert stable == {(0, t): 1 for t in window.t_range()
                      if (0, t) not in L.flags}


def test_completion_of_free_is_identity_pattern(poly_line, window):
    m = max_ideal(poly_line)
    lam = completion(free(poly_line), m, window)
    stable = {k: v for k, v in lam.table().items() if v}
    assert stable == {(0, t): 1 for t in range(window.t_lo, 1)
                      if (0, t) not in lam.flags}


def test_delta_of_complete_is_zero(poly_line, window):
    m = max_ideal(poly_line)
    d = delta(free(poly_line), m, window)
    assert not any(v for k, v in d.table().items() if k not in d.flags)


def test_tate_vanishes_on_torsion(poly_line, window):
    m = max_ideal(poly_line)
    t = tate(GradedModule.residue_field(poly_line), m, window)
    assert not any(v for k, v in t.table().items() if k not in t.flags)


def test_tate_of_free_is_laurent(poly_line, window):
    m = max_ideal(poly_line)
    t = tate(free(poly_line), m, window)
    stable = {k: v for k, v in t.table().items()
              if v and k not in t.flags}
    # Laurent pattern: one class in every stable internal degree, s = 0
    assert stable
    assert all(s == 0 and v == 1 for (s, _), v in stable.items())


def test_tower_flags_on_short_tower(poly_line, window):
    # with too few stages the wave front cannot stabilize near the ceiling
    m = max_ideal(poly_line)
    g = gamma(free(poly_line), m, window, s_max=3)
    assert g.flags


# telescopes -----------------------------------------------------------------


def test_telescope_inversion_kills_torsion(poly_line, window):
    mod = GradedModule(poly_line, [("a", 0)], [["x^2"]])
    c = module_complex(mod, Window(window.t_lo - 1, window.t_hi))
    inv = telescope_invert(c, "x", window, ring=poly_line)
    assert not inv.homotopy and not inv.flags


def test_telescope_inversion_of_free(poly_line, window):
    c = module_complex(free(poly_line), Window(window.t_lo - 1, window.t_hi))
    inv = telescope_invert(c, "x", window, ring=poly_line)
    stable = {k: v for k, v in inv.homotopy.items()
              if v and k not in inv.flags}
    # the telescope certifies one class per stable degree; not acyclic
    assert stable
    assert all(s == 0 and v == 1 for (s, _), v in stable.items())


@pytest.mark.parametrize("functor", [gamma, completion])
def test_tower_clears_memoised_actions_of_its_input(poly_plane, functor,
                                                    monkeypatch):
    # the result keeps its input alive through provenance["input"], so the
    # monomial actions memoised on the input while the tower is built must
    # not outlive the tower
    cleared = []
    clear = WindowedComplex.clear_monomial_actions

    def recording_clear(self):
        cleared.append(len(self._monomials) + len(self._monomials_old))
        clear(self)

    monkeypatch.setattr(WindowedComplex, "clear_monomial_actions", recording_clear)
    mod = GradedModule(poly_plane, [("u", 0)], [["x^2"]])
    res = functor(mod, max_ideal(poly_plane), Window(-4, 4))
    X = res.provenance["input"]
    assert cleared and cleared[-1] > 0
    assert not X._monomials and not X._monomials_old


# property suites ------------------------------------------------------------


@pytest.mark.parametrize("relations", [[], ["x^2"]])
def test_recollement_suite(poly_plane, relations):
    ring = poly_plane.quotient([poly_plane.parse(r) for r in relations],
                               name="Q") if relations else poly_plane
    w = Window(-6, 6)
    rep = check_recollement(free(ring), max_ideal(ring), w)
    checks = {k: v for k, v in rep.items() if isinstance(v, bool)}
    assert checks and all(checks.values()), rep


def test_fracture_square(poly_line):
    w = Window(-6, 6)
    rep = fracture_check(free(poly_line), max_ideal(poly_line), w)
    assert rep["exact"], rep


def test_adjunction(poly_line):
    w = Window(-6, 6)
    m = GradedModule(poly_line, [("a", 0)], [["x^3"]])
    assert adjunction_check(m, free(poly_line), max_ideal(poly_line), w)


def test_local_to_global_detector(poly_line):
    # stratum detectors covering Spec F2[x]: the closed point and the
    # generic point (empty Koszul, x inverted)
    w = Window(-6, 6)
    m = max_ideal(poly_line)
    generic = HomIdeal(poly_line, [], is_prime_asserted=True, name="(0)")
    detectors = [(m, None), (generic, "x")]
    acyclic = GradedModule(poly_line, [("a", 0)], [[{(0,): 1}]], name="zero")
    rep = local_to_global_acyclicity(acyclic, detectors, w)
    assert rep["agreement"] and rep["direct_acyclic"]
    rep2 = local_to_global_acyclicity(free(poly_line), detectors, w)
    assert rep2["agreement"] and not rep2["direct_acyclic"]


def test_gamma_respects_ideal_radical(hypersurface):
    # (x) and (x, y) have the same radical support in F2[x,y]/(y^2)
    w = Window(-6, 6)
    S = hypersurface
    px = HomIdeal(S, [S.parse("x")], name="(x)")
    m = max_ideal(S)
    gx = gamma(free(S), px, w)
    gm = gamma(free(S), m, w)
    excl = gx.flags | gm.flags
    keys = set(gx.table()) | set(gm.table())
    assert all(gx.table().get(k, 0) == gm.table().get(k, 0)
               for k in keys if k not in excl)
