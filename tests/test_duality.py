"""Gorenstein certification, Brown-Comenetz duality, injective hulls,
dual localization, absolute checks, twists and orthogonality."""

import pytest

from localduality.cli import Environment, corpus, parse
from localduality.exactla import ContractViolation
from localduality.graded import (GradedModule, GradedRing, HomIdeal, Window)
from localduality.complexes import module_complex, homology
from localduality.cohom import grothendieck_oracle
from localduality.duality import (GorensteinCertificate, _restrict,
                                  absolute_gorenstein_check, brown_comenetz,
                                  dual_localize, gorenstein_certificate,
                                  injective_hull, maximal_ideal,
                                  orthogonality_check, twist_check)
from localduality.relative import RingMap, theorem_bc_check
from conftest import free, max_ideal, odd_ring


# Gorenstein certificates ------------------------------------------------------


def test_line_is_gorenstein(poly_line, window):
    cert = gorenstein_certificate(poly_line, window)
    assert cert.verdict is True
    assert (cert.krull_dim, cert.shift) == (1, 0)


def test_plane_is_gorenstein(poly_plane, window):
    cert = gorenstein_certificate(poly_plane, window)
    assert cert.verdict is True
    assert (cert.krull_dim, cert.shift) == (2, 0)


def test_hypersurface_is_gorenstein(hypersurface, window):
    cert = gorenstein_certificate(hypersurface, window)
    assert cert.verdict is True
    assert (cert.krull_dim, cert.shift) == (1, -1)


def test_exterior_algebra_is_gorenstein(window):
    ring = GradedRing(2, [("e", -1)], [{(2,): 1}], name="E")
    cert = gorenstein_certificate(ring, window)
    assert cert.verdict is True
    assert cert.krull_dim == 0


def test_non_gorenstein_with_witness(poly_plane, window):
    ring = poly_plane.quotient([poly_plane.parse("x^2"),
                                poly_plane.parse("x*y")], name="NG")
    cert = gorenstein_certificate(ring, window)
    assert cert.verdict is False
    assert cert.failure  # names the obstruction


def test_fat_point_not_gorenstein(poly_plane, window):
    ring = poly_plane.quotient([poly_plane.parse("x^2"),
                                poly_plane.parse("x*y"),
                                poly_plane.parse("y^2")], name="FP")
    cert = gorenstein_certificate(ring, window)
    assert cert.verdict is False


@pytest.mark.parametrize("n,lo,hi", [(1, 0, 0), (2, -1, 1), (2, -2, 1),
                                     (3, -2, 2), (3, -3, 2)])
def test_certificate_of_a_polynomial_ring_reads_no_window(n, lo, hi):
    # H^n_m of a polynomial ring starts in degree n, above these windows;
    # the resolution over the ambient ring sees it all the same
    ring = GradedRing(2, [(f"x{i}", -1) for i in range(n)], [], name=f"P{n}")
    cert = gorenstein_certificate(ring, Window(lo, hi))
    assert (cert.verdict, cert.krull_dim, cert.shift) == (True, n, 0)
    assert cert.witness == {"projective_dimension": 0, "last_degree": 0}


@pytest.mark.parametrize("gens,rels,dim,shift", [
    ("xyz", [], 3, 0), ("wxyz", [], 4, 0), ("wxyz", ["w*x + y*z"], 3, -1)])
def test_certificate_of_three_and_four_variables(gens, rels, dim, shift):
    ring = GradedRing(2, [(g, -1) for g in gens], rels, name=gens)
    cert = gorenstein_certificate(ring, Window(-8, 8))
    assert (cert.verdict, cert.krull_dim, cert.shift) == (True, dim, shift)


def test_certificate_sees_the_socle_below_the_window():
    # H^0_m of F2[x,y]/(x^2, xy) is (x), in degree -1, below (0, 2); a
    # certificate read inside the window called it Gorenstein
    ng = next(e for e in corpus() if e.name == "non_gorenstein")
    ring = Environment(parse(ng.text)[0]).ring("R")
    cert = gorenstein_certificate(ring, Window(0, 2))
    assert cert.verdict is False
    assert cert.failure == {"projective_dimension": 2, "last_betti": 1,
                            "last_degrees": [-3], "nonvanishing": {}}
    wide = gorenstein_certificate(ring, Window(-2, 2))
    assert wide.failure["nonvanishing"] == {(0, -1): 1}


@pytest.mark.parametrize("name", ["non_gorenstein", "fat_point"])
def test_false_certificate_resolves_the_ring_once(name, monkeypatch):
    # the failure's H^i_m(R) is read off the resolution behind the verdict
    from localduality import duality, graded
    lengths = []
    real = graded.minimal_free_resolution

    def counting(mod, length):
        lengths.append(length)
        return real(mod, length)

    monkeypatch.setattr(graded, "minimal_free_resolution", counting)
    monkeypatch.setattr(duality, "minimal_free_resolution", counting)
    entry = next(e for e in corpus() if e.name == name)
    ring = Environment(parse(entry.text)[0]).ring("R")
    assert gorenstein_certificate(ring, Window(-8, 8)).verdict is False
    assert lengths == [ring.n]


def test_certificates_of_even_rings_read_no_window():
    # every window with -4 <= t_lo <= 2 and span <= 4 gives every corpus
    # ring, odd_line included, its one verdict, Krull dimension and shift
    for entry in corpus():
        ring = Environment(parse(entry.text)[0]).ring("R")
        want = gorenstein_certificate(ring, Window(-8, 8))
        assert want.verdict is entry.gorenstein, entry.name
        for lo in range(-4, 3):
            for hi in range(lo, lo + 5):
                cert = gorenstein_certificate(ring, Window(lo, hi))
                assert (cert.verdict, cert.krull_dim, cert.shift) == \
                    (want.verdict, want.krull_dim, want.shift), \
                    (entry.name, lo, hi)


# every window with -4 <= t_lo <= 2 and span <= 4 at which a Gorenstein
# corpus ring was called not Gorenstein when the hull was read only inside
# the window
NARROW = [("z2", 1, 1), ("klein", 1, 2), ("klein", 2, 2), ("klein", 2, 3),
          ("bs1", 2, 2), ("q8", 1, 1), ("odd_line", 1, 1),
          ("exterior", -4, -1), ("exterior", -3, -1), ("exterior", -2, -1),
          ("exterior", -1, -1), ("hypersurface", 0, 0)]


@pytest.mark.parametrize("name,lo,hi", NARROW)
def test_a_narrow_window_does_not_refute_a_gorenstein_ring(name, lo, hi):
    entry = next(e for e in corpus() if e.name == name)
    assert entry.gorenstein
    ring = Environment(parse(entry.text)[0]).ring("R")
    cert = gorenstein_certificate(ring, Window(lo, hi))
    assert cert.verdict is True, cert.failure
    want = gorenstein_certificate(ring, Window(-8, 8))
    assert (cert.krull_dim, cert.shift) == (want.krull_dim, want.shift)
    if entry.shift is not None:
        assert cert.shift == entry.shift


def test_a_narrow_window_reads_no_wrong_shift():
    # the hull matched only where both degrees lay in the window: the cusp
    # (shift -2) read shift 0 at (0, 1), and F2[x,y]/(x^2, xy), which is not
    # Gorenstein, read shift k - 2 at (0, k)
    base = GradedRing(2, [("x", -2), ("y", -3)], [], name="C")
    cusp = base.quotient([base.parse("x^3 + y^2")], name="cusp")
    cert = gorenstein_certificate(cusp, Window(0, 1))
    assert cert.verdict is not True or cert.shift == -2
    ng = next(e for e in corpus() if e.name == "non_gorenstein")
    ring = Environment(parse(ng.text)[0]).ring("R")
    for hi in (3, 4):
        assert gorenstein_certificate(ring, Window(0, hi)).verdict is not True


# each ring of conftest.ODD_RINGS with its verdict, Krull dimension, shift
# and, for a False verdict, the obstruction: pd over the even polynomial ring
# off c = N - dim R, or the type (the odd generators' common kernel on
# Tor_c) off 1.  Each agrees with the Koszul tower's shifted-hull
# certificate at (-8, 8).
ODD_VERDICTS = [
    ("F3[a',b]", True, 1, 0, {}),
    ("F3[a']", True, 0, -1, {}),
    ("F3[a',b']", True, 0, -2, {}),
    ("F3[a',b']/(ab)", False, 0, None, {"projective_dimension": 0,
                                        "type": 2}),
    ("F3[a',b]/(ab)", False, 1, None, {"projective_dimension": 1}),
    # the relation a and eps_ab = 0 make a generator of R over P redundant:
    # unpruned, it reads pd 1 and calls F3[b] not Gorenstein
    ("F3[a',b]/(a)", True, 1, 1, {}),
    ("F3[a',b',x]/(ab)", False, 1, None, {"projective_dimension": 0,
                                          "type": 2}),
    ("F3[a',b',x]/(ab+x^2)", True, 0, -3, {}),
    ("F5[x,e',y]/(x^2e)", False, 2, None, {"projective_dimension": 1}),
    ("F5[x,e']/(x^2)", True, 0, -2, {}),
]


@pytest.mark.parametrize("name,verdict,dim,shift,failure", ODD_VERDICTS,
                         ids=[v[0] for v in ODD_VERDICTS])
def test_certificates_of_rings_with_an_odd_generator(name, verdict, dim,
                                                     shift, failure):
    ring = odd_ring(name)
    for w in (Window(-8, 8), Window(0, 0)):
        cert = gorenstein_certificate(ring, w)
        assert (cert.verdict, cert.krull_dim, cert.shift) == \
            (verdict, dim, shift)
        assert {k: cert.failure[k] for k in failure} == failure
        assert ("type" in cert.failure) == ("type" in failure)


def test_restriction_keeps_koszul_signs():
    # in S, b * (a*x + c*y) = -a*b*x + b*c*y: the row eps_b * rho of R over
    # F3[x, y] carries both signs
    ring = GradedRing(3, [("a", -1, True), ("b", -1, True), ("c", -1, True),
                          ("x", -1), ("y", -1)], ["a*x + c*y"])
    mod = _restrict(free(ring))
    P = ring.polynomial
    assert [g.name for g in P.generators] == ["x", "y"]
    rows = [{mod.generators[j][0]: P.poly_str(p) for j, p in enumerate(row)
             if p} for row in mod.relations]
    assert {"a*b*e0": "2*x", "b*c*e0": "y"} in rows
    assert {"a*e0": "x", "c*e0": "y"} in rows


def test_a_false_certificate_is_refused():
    # F3[a', b], a odd, at (0, 0), where its H^1_m lies above the window:
    # the certificate reads no window, so every caller takes it, and each
    # refuses a certificate that says False
    line = odd_ring("F3[a',b]")
    w = Window(0, 0)
    cert = gorenstein_certificate(line, w)
    assert (cert.verdict, cert.krull_dim, cert.shift) == (True, 1, 0)
    assert cert.witness == {"projective_dimension": 0, "last_degree": -1}
    false = GorensteinCertificate(line.name, False, 1)
    generic = HomIdeal(line, ["a"], is_prime_asserted=True, name="(a)")
    m = max_ideal(line)
    calls = {
        "dual_localize": lambda c: dual_localize(free(line), generic, w,
                                                 certificate=c),
        "absolute_gorenstein_check": lambda c: absolute_gorenstein_check(
            line, m, w, c),
        "grothendieck_oracle": lambda c: grothendieck_oracle(
            free(line), w, c),
        "theorem_bc_check": lambda c: theorem_bc_check(
            RingMap.identity(line), m, w, c),
    }
    assert calls["dual_localize"](cert)["ranks"] == {1: 1}
    assert calls["grothendieck_oracle"](cert).entries == {}
    for name, call in calls.items():
        with pytest.raises(ContractViolation, match="Gorenstein") as refused:
            call(false)
        assert "undetermined" not in str(refused.value), name


# injective hulls and Brown-Comenetz ------------------------------------------


def test_injective_hull_at_max(poly_line, window):
    im = injective_hull(max_ideal(poly_line), window)
    assert im.route == "matlis"
    assert all(im.dim(t) == 1 for t in range(0, window.t_hi + 1))
    assert all(im.dim(t) == 0 for t in range(window.t_lo, 0))


def test_injective_hull_at_generic(poly_line, window):
    generic = HomIdeal(poly_line, [], is_prime_asserted=True, name="(0)")
    ip = injective_hull(generic, window)
    assert ip.kappa_rank == 1
    assert ip.route == "dual_localize"


def test_injective_hull_refuses_an_undeclared_ideal(poly_plane, window):
    xy = HomIdeal(poly_plane, [poly_plane.parse("x*y")], name="(xy)")
    with pytest.raises(ContractViolation, match="not declared prime"):
        injective_hull(xy, window)


def test_brown_comenetz_involution(poly_line, window):
    mod = GradedModule(poly_line, [("a", 0)], [["x^3"]])
    c = module_complex(mod, window)
    dd = brown_comenetz(brown_comenetz(c, window), window)
    assert homology(dd, window) == homology(c, window)


def test_brown_comenetz_flips_degrees(poly_line, window):
    c = module_complex(free(poly_line), window)
    d = brown_comenetz(c, window)
    h = {k: v for k, v in homology(d, window).items() if v}
    assert h == {(0, t): 1 for t in range(0, window.t_hi + 1)}


# dual localization ------------------------------------------------------------


def test_dual_localize_at_max_is_identity(poly_plane, window):
    rep = dual_localize(free(poly_plane), max_ideal(poly_plane), window)
    assert rep.get("identity") and rep["ranks"] == {2: 1}


def test_dual_localize_at_height_one(poly_plane, window):
    p = HomIdeal(poly_plane, [poly_plane.parse("x")],
                 is_prime_asserted=True, name="(x)")
    rep = dual_localize(free(poly_plane), p, window)
    assert rep["ranks"] == {2: 1}
    assert rep["dimension_drop"] == 1


def test_dual_localize_refuses_non_gorenstein(poly_plane, window):
    # F2[x,y]/(x^2, xy) has dimension 1 and is not Gorenstein; (x) is a
    # non-maximal prime, so the Ext route is required and must refuse
    ring = poly_plane.quotient([poly_plane.parse("x^2"),
                                poly_plane.parse("x*y")], name="NG")
    p = HomIdeal(ring, [ring.parse("x")], is_prime_asserted=True,
                 name="(x)")
    with pytest.raises(ContractViolation):
        dual_localize(free(ring), p, window)


# absolute checks --------------------------------------------------------------


def test_absolute_check_exact_mode(poly_line, window):
    rep = absolute_gorenstein_check(poly_line, max_ideal(poly_line), window)
    assert rep["verdict"] and rep["mode"] == "exact"


def test_absolute_check_kappa_mode(poly_plane, window):
    p = HomIdeal(poly_plane, [poly_plane.parse("y")],
                 is_prime_asserted=True, name="(y)")
    rep = absolute_gorenstein_check(poly_plane, p, window)
    assert rep["verdict"] and rep["mode"] == "kappa(p)-rank"
    assert rep["ranks"] == {2: 1}


# twists -----------------------------------------------------------------------


def test_twist_with_unit_module(poly_line, window):
    J = free(poly_line)
    rep = twist_check(poly_line, J, max_ideal(poly_line), window)
    assert rep["verdict"], rep


def test_twist_with_shifted_module(poly_line, window):
    J = GradedModule(poly_line, [("a", 3)], [], name="S3R")
    rep = twist_check(poly_line, J, max_ideal(poly_line), window)
    assert not rep["verdict"], rep


def test_twist_with_zero_module(poly_line, window):
    rep = twist_check(poly_line, None, max_ideal(poly_line), window)
    assert not rep["verdict"]  # I_m is nonzero in range


def test_twist_with_unit_module_on_the_plane(poly_plane, window):
    rep = twist_check(poly_plane, free(poly_plane), max_ideal(poly_plane),
                      window)
    assert rep["verdict"] is True
    assert rep["totals"] == {n: n + 1 for n in range(7)}


def test_twist_refuses_nonmaximal(poly_plane, window):
    p = HomIdeal(poly_plane, [poly_plane.parse("x")],
                 is_prime_asserted=True, name="(x)")
    with pytest.raises(ContractViolation):
        twist_check(poly_plane, free(poly_plane), p, window)


# orthogonality ----------------------------------------------------------------


@pytest.mark.parametrize("rel,nu", [("y^3", -2), ("y^4", -3),
                                    ("x^2*y + x*y^2", -2)])
def test_abs_gorenstein_on_gorenstein_hypersurfaces(poly_plane, window, rel,
                                                    nu):
    # the hull's Hilbert function is known on the window only, so the
    # comparison stops at w.t_hi + nu + n; the certificate reads the
    # resolution over F2[x,y], 0 -> F2[x,y](nu - 1) -> F2[x,y]
    ring = poly_plane.quotient([poly_plane.parse(rel)], name=f"R/({rel})")
    cert = gorenstein_certificate(ring, window)
    assert (cert.verdict, cert.krull_dim, cert.shift) == (True, 1, nu)
    assert cert.witness == {"projective_dimension": 1, "last_degree": nu - 1}
    rep = absolute_gorenstein_check(ring, max_ideal(ring), window, cert)
    assert rep["verdict"] is True, rep
    b = nu + cert.krull_dim
    lo, hi = rep["comparison_window"]
    assert window.t_lo + b <= lo <= hi <= window.t_hi + b


def test_orthogonality_distinct_primes(poly_plane, window):
    p = HomIdeal(poly_plane, [poly_plane.parse("x")],
                 is_prime_asserted=True, name="(x)")
    m = max_ideal(poly_plane)
    rep = orthogonality_check(p, m, "y", window)
    assert rep["verdict"], rep


def test_orthogonality_with_a_window_ending_below_zero(poly_plane):
    # R is realized through its top degree 0 even when the window ends lower
    m = max_ideal(poly_plane)
    q = HomIdeal(poly_plane, ["x^2"], name="(x^2)")
    for w in (Window(-6, -2), Window(-6, 0)):
        rep = orthogonality_check(m, q, "x*y", w)
        assert rep == {"verdict": True, "flags": [], "residual": {}}, w


def test_orthogonality_refuses_same_prime(poly_plane, window):
    m1 = max_ideal(poly_plane)
    m2 = max_ideal(poly_plane)
    with pytest.raises(ContractViolation):
        orthogonality_check(m1, m2, "x", window)


def test_orthogonality_refuses_bad_witness(poly_plane, window):
    p = HomIdeal(poly_plane, [poly_plane.parse("x")],
                 is_prime_asserted=True, name="(x)")
    m = max_ideal(poly_plane)
    with pytest.raises(ContractViolation):
        orthogonality_check(p, m, "x", window)  # x lies in both
