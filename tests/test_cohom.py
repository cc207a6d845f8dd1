"""Local (co)homology tables, Čech comparison, collapse and the
Grothendieck-duality oracle."""

import pytest

from localduality.graded import GradedModule, GradedRing, HomIdeal, Window
from localduality.cohom import (cech_cohomology, cech_les_balance,
                                collapse_check, grothendieck_oracle,
                                grothendieck_vanishing, local_cohomology,
                                local_homology, oracle_agreement,
                                torsionness_check)
from conftest import free, max_ideal


def test_line_h1(poly_line, window):
    t = local_cohomology(free(poly_line), max_ideal(poly_line), window)
    for tt in range(1, window.t_hi + 1):
        assert t.dim(1, tt) == 1
    assert all(i == 1 for (i, _), v in t.entries.items() if v)


def test_plane_h2_is_t_minus_one(poly_plane, window):
    t = local_cohomology(free(poly_plane), max_ideal(poly_plane), window)
    for tt in range(2, window.t_hi + 1):
        assert t.dim(2, tt) == tt - 1
    assert not any(v for (i, _), v in t.entries.items() if i != 2)


def test_local_homology_of_free(poly_line, window):
    t = local_homology(free(poly_line), max_ideal(poly_line), window)
    stable = {k: v for k, v in t.entries.items()
              if v and k not in t.flags}
    assert stable == {(0, tt): 1 for tt in range(window.t_lo, 1)
                      if (0, tt) not in t.flags}


def test_cech_of_line_is_laurent(poly_line, window):
    t = cech_cohomology(free(poly_line), max_ideal(poly_line), window)
    for tt in window.t_range():
        assert t.dim(0, tt) == 1


def test_cech_of_plane(poly_plane, window):
    t = cech_cohomology(free(poly_plane), max_ideal(poly_plane), window)
    # CH^0 = R in degrees <= 0 (H^0 = H^1 = 0), CH^1 = H^2
    for tt in range(window.t_lo, 1):
        assert t.dim(0, tt) == 1 - tt
    for tt in range(2, window.t_hi + 1):
        assert t.dim(1, tt) == tt - 1


def test_cech_les_balance(poly_plane, window):
    assert cech_les_balance(free(poly_plane), max_ideal(poly_plane), window)


def test_torsion_module_h0(hypersurface, window):
    S = hypersurface
    mod = GradedModule(S, [("a", 0)], [["x"], ["y"]], name="k")
    t = local_cohomology(mod, max_ideal(S), window)
    assert {k: v for k, v in t.entries.items() if v} == {(0, 0): 1}


def test_collapse_identity(poly_plane, window):
    mod = GradedModule(poly_plane, [("a", 0), ("b", -1)], [["x^2", "y"]])
    rep = collapse_check(mod, max_ideal(poly_plane), window)
    assert rep["verdict"], rep


def test_collapse_on_formal_sum(poly_line, window):
    parts = [(free(poly_line), 0), (GradedModule.residue_field(poly_line), 2)]
    rep = collapse_check(parts, max_ideal(poly_line), window)
    assert rep["verdict"], rep


def test_torsionness(poly_line, window):
    mod = GradedModule(poly_line, [("a", 0)], [["x^3"]])
    rep = torsionness_check(mod, max_ideal(poly_line), window)
    assert rep["verdict"], rep


def test_torsionness_is_true_only_when_every_class_is_checked(poly_line):
    mod = GradedModule(poly_line, [("a", 0)], [["x^3"]])
    m = max_ideal(poly_line)
    full = torsionness_check(mod, m, Window(-8, 8))
    assert full == {"verdict": True, "checked": 3, "unchecked": 0}
    # near the floor x.a in degree -1 and the class in degree -1 leave the
    # window before they die
    cut = torsionness_check(mod, m, Window(-1, 1))
    assert cut == {"verdict": None, "checked": 0, "unchecked": 2}


def test_grothendieck_vanishing(poly_plane, window):
    t = local_cohomology(free(poly_plane), max_ideal(poly_plane), window)
    assert grothendieck_vanishing(t, poly_plane.krull_dim())
    assert not grothendieck_vanishing(t, 1)


def test_oracle_matches_tower(poly_plane, window):
    rep = oracle_agreement(free(poly_plane), window)
    assert rep["verdict"], rep["mismatches"]


def test_oracle_matches_tower_on_module(poly_line, window):
    mod = GradedModule(poly_line, [("a", 0), ("b", -2)], [])
    rep = oracle_agreement(mod, window)
    assert rep["verdict"], rep["mismatches"]


def test_oracle_table_values(poly_line, window):
    t = grothendieck_oracle(free(poly_line), window)
    for tt in range(1, window.t_hi + 1):
        assert t.dim(1, tt) == 1
