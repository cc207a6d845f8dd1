"""Windowed complexes: realization, homology, cones, tensor products."""

from hypothesis import given, settings, strategies as st

from localduality.graded import GradedModule, GradedRing, Window, tor
from localduality.complexes import (ComplexMap, FreeComplex, cone, homology,
                                    module_complex, shift)
from localduality.exactla import SparseMatrix
from localduality.torsion import koszul_free, koszul_object
from conftest import free


def test_module_complex_homology_is_hilbert(poly_line, window):
    c = module_complex(free(poly_line), window)
    h = homology(c, window)
    assert h == {(0, t): 1 for t in range(window.t_lo, 1)}


def test_koszul_complex_is_a_complex(poly_plane, window):
    F = koszul_free(poly_plane, [poly_plane.parse("x"), poly_plane.parse("y")])
    c = F.realize(free(poly_plane), window, validate=True)  # validates d^2=0
    assert c.s_max == 2


def test_koszul_on_regular_sequence(poly_plane, window):
    # Kos(R; x, y) resolves k: homology is k in bidegree (0, 0)
    C = koszul_object(free(poly_plane), ["x", "y"], window)
    h = {k: v for k, v in homology(C, window).items() if v}
    assert h == {(0, 0): 1}


def test_koszul_detects_nonregularity(hypersurface, window):
    # y is a zero-divisor in F2[x,y]/(y^2): Kos(S; y) has H_1
    C = koszul_object(free(hypersurface), ["y"], window)
    h = homology(C, window)
    assert any(v for (s, t), v in h.items() if s == 1)


def test_shift_moves_homology(poly_line, window):
    c = module_complex(free(poly_line), window)
    sh = shift(c, 2, 1)
    h = homology(sh, window)
    assert h.get((2, 0)) == 1
    assert all(s == 2 for (s, t), v in h.items() if v)


def test_tensor_balancing_against_tor(poly_plane):
    # pi_* of the derived tensor of modules computed two ways:
    # realized Koszul resolution tensor vs the tor table
    w = Window(-6, 6, 0, 2)
    a = GradedModule.residue_field(poly_plane)
    b = GradedModule(poly_plane, [("b", 0)], [["x"]])
    tt = tor(a, b, w)
    want = {}
    for (p, t), v in tt.items():
        if v:
            want[p + t] = want.get(p + t, 0) + v
    # realize a via its Koszul resolution and tensor with b's module complex
    F = koszul_free(poly_plane, [poly_plane.parse("x"), poly_plane.parse("y")])
    C = F.realize(b, w, validate=False)
    got = {}
    for (s, t), v in homology(C, w).items():
        if v and w.t_lo + 2 <= s + t <= 0:
            got[s + t] = got.get(s + t, 0) + v
    for n in range(w.t_lo + 2, 1):
        assert got.get(n, 0) == want.get(n, 0)


def test_cone_kills_identity(poly_line, window):
    c = FreeComplex.unit(poly_line).realize(free(poly_line), window)
    ident = ComplexMap(c, c, {k: SparseMatrix.identity(poly_line.field, d)
                              for k, d in c.dims.items()})
    ident.validate()
    cc = cone(ident)
    cc.validate()
    assert cc.dims and not any(homology(cc, window).values())

