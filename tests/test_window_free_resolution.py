"""Resolutions that no window cuts: Ext, the Ext-duality oracle and the
kappa(p)-ranks read generators far below the window they are asked on, and
a completion that runs away is refused with the stage it ran away in (and
the module, when its relations ran away)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from localduality import graded
from localduality.cli import Environment, corpus, main, parse
from localduality.cohom import oracle_agreement
from localduality.duality import dual_localize, gorenstein_certificate
from localduality.exactla import ContractViolation
from localduality.graded import (GradedModule, GradedRing, HomIdeal, Window,
                                 ext, minimal_free_resolution)
from conftest import free


@pytest.fixture(scope="module")
def plane():
    return GradedRing(2, [("x", -1), ("y", -1)], [], name="F2[x,y]")


def x_power(ring, e):
    return GradedModule(ring, [("a", 0)], [[f"x^{e}"]], name=f"R/(x^{e})")


def test_ext_does_not_depend_on_the_window_floor(plane):
    # F_1 of R/(x^e) sits in degree -e; at e = 10 a floor of -7 missed it
    for e in (7, 10):
        M = x_power(plane, e)
        narrow = ext(M, free(plane), Window(-6, 6, 0, 2))
        wide = ext(M, free(plane), Window(-12, 6, 0, 2))
        assert narrow == {k: v for k, v in wide.items() if k[1] >= -6}, e


def test_ext_of_a_cyclic_torsion_module_into_the_ring(plane):
    # Hom(R/(f), R) = 0 over a domain, and Ext^1(R/(f), R) = R/(f) with
    # its generator moved to degree -deg f
    w = Window(-6, 6, 0, 2)
    for e in (1, 3, 7, 10):
        M = x_power(plane, e)
        table = ext(M, free(plane), w)
        assert not any(v for (j, _), v in table.items() if j == 0), e
        assert {t: v for (j, t), v in table.items() if j == 1 and v} == \
            {t: M.dim_in_degree(t - e) for t in w.t_range()
             if M.dim_in_degree(t - e)}, e


def test_oracle_agrees_on_powers_of_a_variable(plane):
    # past the default stage cap span + 4, where the stage the tower side
    # needs is above the cap and its entries are flagged
    w = Window(-6, 6)
    certificate = gorenstein_certificate(plane, w)
    for e in range(1, w.span + 9):
        rep = oracle_agreement(x_power(plane, e), w, certificate)
        assert rep["verdict"], (e, rep["mismatches"])


@pytest.fixture(scope="module")
def plane_certificate(plane):
    return gorenstein_certificate(plane, Window(-6, 6))


def test_kappa_ranks_do_not_depend_on_the_window_floor(plane, plane_certificate):
    xP = HomIdeal(plane, ["x"], is_prime_asserted=True, name="(x)")
    for e in (7, 10):
        M = x_power(plane, e)
        narrow = dual_localize(M, xP, Window(-6, 6), certificate=plane_certificate)
        wide = dual_localize(M, xP, Window(-12, 6), certificate=plane_certificate)
        assert narrow["ranks"] == wide["ranks"], e


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 3)),
                min_size=1, max_size=3),
       st.sampled_from(["x", "y"]))
def test_kappa_ranks_at_any_floor(plane, plane_certificate, monos, prime):
    # pins that the ranks do not move with the window floor, not which
    # invariant they are
    p = HomIdeal(plane, [prime], is_prime_asserted=True, name=f"({prime})")
    M = GradedModule(plane, [("a", 0)],
                     [[f"x^{i}*y^{j}"] for i, j in monos if i + j] or [["x*y"]])
    ranks = [dual_localize(M, p, Window(lo, 6),
                           certificate=plane_certificate)["ranks"]
             for lo in (-3, -8, -16)]
    assert ranks[0] == ranks[1] == ranks[2]


def test_residue_field_over_q8_reaches_degree_minus_7():
    # q8 = A[z] with z in degree -4: the stage-2 generator of k over A in
    # degree -3, times z, gives the stage-3 generator in degree -7
    entry = next(e for e in corpus() if e.name == "q8")
    spec, diags = parse(entry.text)
    assert spec is not None and not diags
    ring = Environment(spec).rings["R"]
    res = minimal_free_resolution(GradedModule.residue_field(ring), 3)
    assert [s.gen_degrees for s in res.stages] == [
        [0], [-1, -1, -4], [-2, -2, -3, -5, -5], [-3, -3, -4, -4, -6, -6, -7]]


def test_generator_above_the_window_resolves_completely(plane):
    # k with its generator in degree 3: the Koszul complex starts above
    # every window below, and Ext(k(3), R) is k in Ext^2, degree -1
    k3 = GradedModule(plane, [("u", 3)], [["x"], ["y"]], name="k3")
    res = minimal_free_resolution(k3, 3)
    assert [s.gen_degrees for s in res.stages] == [[3], [2, 2], [1], []]
    table = ext(k3, free(plane), Window(-6, 0, 0, 2))
    assert {k: v for k, v in table.items() if v} == {(2, -1): 1}


def test_runaway_completion_names_the_stage(tmp_path, capsys, monkeypatch):
    # the ring's Groebner basis reaches weight 19; the session's own normal
    # forms stay light, and only the frame needs the whole basis, so with
    # the limit lowered to 10 S-pairs `resolve` alone is refused
    monkeypatch.setattr(graded, "PAIR_LIMIT", 10)
    inp = tmp_path / "session.txt"
    inp.write_text(
        "[ring R]\nchar = 2\ngenerators = x:-1, y:-1, z:-1\n"
        "relations = x^3*y^2 + x*y*z^3, x*y^3*z + y^4*z\n"
        "[module M]\nring = R\ngenerators = u:0\n"
        "relation = x\nrelation = y\n"
        "[run]\nhilbert M\nresolve M\n")
    assert main(["--input", str(inp)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [r["kind"] for r in report["results"]] == ["hilbert"]
    [diag] = report["diagnostics"]
    assert diag["line"] == 12
    assert diag["message"].startswith("resolution stage 2: completion runaway")


# two relations over F2[x,y,z] in degree -5 whose Groebner basis gains four
# elements in degrees -7 ... -10: 15 of its S-pairs reach a reduction, 9
# down to degree -11 and 13 down to -12
RUNAWAY_ROWS = [["x^3*y^2 + x*y*z^3"], ["x*y^3*z + y^4*z"]]


def test_runaway_frame_names_the_stage(monkeypatch):
    # with the limit lowered to 10 reductions the first stage reads the
    # relations down to -5 and reduces nothing, and the Schreyer frame of
    # the second, which needs the whole basis, is refused
    monkeypatch.setattr(graded, "PAIR_LIMIT", 10)
    ring = GradedRing(2, [(n, -1) for n in "xyz"], [])
    mod = GradedModule(ring, [("u", 0)], RUNAWAY_ROWS)
    with pytest.raises(ContractViolation, match="^resolution stage 2: "
                       "completion runaway: the Schreyer frame exceeded 10 "
                       "S-pairs$"):
        minimal_free_resolution(mod, 2)


def test_runaway_relations_name_the_module(monkeypatch):
    # with the limit lowered to 10 reductions the module's relations
    # complete down to -11 and are refused below, with its name
    monkeypatch.setattr(graded, "PAIR_LIMIT", 10)
    ring = GradedRing(2, [(n, -1) for n in "xyz"], [])
    mod = GradedModule(ring, [("u", 0)], RUNAWAY_ROWS, name="N")
    assert [mod.dim_in_degree(t) for t in (0, -1, -4, -5)] == [1, 3, 15, 19]
    mod.dim_in_degree(-11)
    with pytest.raises(ContractViolation, match="^completion runaway: the "
                       "relations of module N exceeded 10 S-pairs$"):
        mod.dim_in_degree(-12)
    # a relation in degree -12 takes the first stage down to -12
    mod = GradedModule(ring, [("u", 0)], RUNAWAY_ROWS + [["x^12"]], name="N")
    with pytest.raises(ContractViolation, match="^resolution stage 1: "
                       "completion runaway: the relations of module N"):
        minimal_free_resolution(mod, 2)
