"""Local (co)homology tables, Čech comparison, collapse and the
Grothendieck-duality oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from localduality.cli import Environment, corpus, parse
from localduality.graded import (GradedModule, GradedRing, HomIdeal, Window,
                                 hilbert_function)
from localduality.cohom import (cech_cohomology, cohomology_table,
                                collapse_check, grothendieck_oracle,
                                local_cohomology, local_homology,
                                oracle_agreement, torsionness_check)
from localduality.torsion import gamma
from conftest import ODD_RINGS, free, max_ideal, odd_ring


def cech_les_balance(mod, p, w):
    """Alternating-sum identity of M, H^*_p, CH^* in every internal degree."""
    lc = local_cohomology(mod, p, w)
    ch = cech_cohomology(mod, p, w)
    hf = hilbert_function(mod, w)
    flagged_t = {t for (_i, t) in list(lc.flags) + list(ch.flags)}
    for t in w.t_range():
        if t in flagged_t:
            continue
        euler_h = sum(((-1) ** i) * v for (i, tt), v in lc.entries.items()
                      if tt == t)
        euler_c = sum(((-1) ** i) * v for (i, tt), v in ch.entries.items()
                      if tt == t)
        # LES Gamma -> id -> L: chi(CH) = chi(M) - chi(H) with
        # cohomological signs: CH^0 - CH^1 + ... = M - (H^0 - H^1 + ...)
        if euler_c != hf.get(t, 0) - euler_h:
            return False
    return True


def grothendieck_vanishing(table, krull_dim):
    """H^i = 0 for i above the Krull dimension (unflagged entries)."""
    return all(i <= krull_dim or (i, t) in table.flags
               for (i, t) in table.entries)


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


# H^*_m by local duality over the ambient polynomial ring ----------------------


def x_power(e):
    plane = GradedRing(2, [("x", -1), ("y", -1)], [], name="F2[x,y]")
    return GradedModule(plane, [("a", 0)], [[f"x^{e}"]], name=f"R/(x^{e})")


@pytest.mark.parametrize("e", range(1, 33))
def test_local_cohomology_of_a_power_of_a_variable(e):
    # R/(x^e) has depth and dimension 1, and H^1_m = F2[x^-1, y]/(x^e) with
    # x^-1 in degree 1: e classes in each degree t >= 1, fewer below
    w = Window(-6, 6)
    M = x_power(e)
    t = local_cohomology(M, max_ideal(M.ring), w)
    want = {(1, tt): e - max(0, 1 - tt) for tt in w.t_range()
            if e - max(0, 1 - tt) > 0}
    assert (t.entries, t.flags) == (want, {})


def test_tower_reports_no_top_cohomology_of_a_power_of_a_variable():
    M = x_power(16)
    m = max_ideal(M.ring)
    t = cohomology_table(gamma(M, m, Window(-6, 6)), m)
    assert not {k: v for k, v in t.entries.items()
                if k[0] == 2 and k not in t.flags}


RINGS = [(e.name, Environment(parse(e.text)[0]).ring("R")) for e in corpus()] \
    + [(name, odd_ring(name)) for name in ODD_RINGS]


@st.composite
def small_modules(draw):
    """A module over a corpus ring or a ring with an odd generator: one or
    two generators in degree 0 or -1 and up to two relations, each a
    standard monomial of degree -1 to -3 at one generator.  Two generators
    may also be linked by u_g = -mu * u_o for mu even (a constant where
    their degrees agree), a relation with a constant entry, which the
    restriction to the even polynomial ring prunes."""
    name, ring = draw(st.sampled_from(RINGS))
    degrees = draw(st.lists(st.integers(-1, 0), min_size=1, max_size=2))
    r = len(degrees)
    rows = []
    monos = [m for t in (-1, -2, -3) for m in ring.basis_in_degree(t)]
    for _ in range(draw(st.integers(0, 2)) if monos else 0):
        row = [{} for _ in range(r)]
        row[draw(st.integers(0, r - 1))] = {draw(st.sampled_from(monos)): 1}
        rows.append(row)
    if r == 2 and draw(st.booleans()):
        g = min(range(2), key=degrees.__getitem__)
        mus = [m for m in ring.basis_in_degree(degrees[g] - degrees[1 - g])
               if not sum(e for e, odd in zip(m, ring.parity) if odd) % 2]
        if mus:
            row = [{}, {}]
            row[g], row[1 - g] = {(0,) * ring.n: 1}, {draw(st.sampled_from(mus)): 1}
            rows.append(row)
    return GradedModule(ring, [(f"u{j}", d) for j, d in enumerate(degrees)],
                        rows, name=f"{name}<{degrees}|"
                        f"{[[ring.poly_str(p) for p in row] for row in rows]}>")


@settings(max_examples=60, deadline=None)
@given(small_modules())
def test_duality_table_agrees_with_every_unflagged_tower_entry(mod):
    w = Window(-6, 6)
    m = max_ideal(mod.ring)
    table = local_cohomology(mod, m, w)
    tower = cohomology_table(gamma(mod, m, w), m)
    assert not table.flags
    keys = (set(table.entries) | set(tower.entries)) - set(tower.flags)
    assert {k: table.dim(*k) for k in keys} == \
        {k: tower.dim(*k) for k in keys}, mod.name
