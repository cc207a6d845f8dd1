"""The proven Koszul stage at the ideal of the ring's even generators.

For a module M and that ideal, `torsion._stage_floor` reads s*(s, t) off the
minimal free resolution of M over the polynomial ring P on the even
generators, and Gamma and Lambda build the one stage min(s_max, s*): no
tail, no map between stages.  Its unflagged entries must equal local
duality (`duality._duality_table`) for Gamma and M in H_0 for Lambda, and
the bound is tight: the stage just below s* differs.

A complex filtered by shifted copies of one module (its shape) gets one
stage too.  The complexes `check_recollement` feeds a second functor are
checked against independent answers: Gamma of the Gamma model is local
duality, Gamma of the L model vanishes, Lambda of Hom(F, M) is what the
tail rule certifies, and two stages more change nothing.  Lambda of a
proven Gamma model builds the module's own Lambda stage: its Delta equals
Delta built three stages higher, and a model whose ceiling is too low is
flagged where its reads pass it.  Complexes with no shape, as the tail-rule
reference tests build them, keep the tail rule.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from localduality import torsion
from localduality.cli import Environment, corpus, parse
from localduality.cohom import cohomology_table
from localduality.complexes import (cone, homology, module_complex,
                                    resolution_complex, shift)
from localduality.duality import _duality_table, absolute_gorenstein_check
from localduality.graded import (GradedModule, GradedRing, Window,
                                 minimal_free_resolution)
from localduality.torsion import (ADJUNCTION_LENGTH, CONSEC, _homology_tower,
                                  _ideal_data, _koszul_tower, _materialize,
                                  _resolution_hom, _stage_floor,
                                  check_recollement, completion,
                                  default_s_max, delta, dual_koszul_free,
                                  extended_window, gamma, koszul_free,
                                  koszul_object, localize_away, tate)
from conftest import max_ideal

EVEN_RINGS = [(e.name, ring) for e in corpus()
              for ring in [Environment(parse(e.text)[0]).ring("R")]
              if not any(ring.parity)]
WINDOWS = [Window(-4, 4), Window(-6, 3)]


@st.composite
def even_modules(draw):
    """A module over an even corpus ring: one or two generators in degree
    0 or -1 and up to two relations, each a standard monomial of degree -1
    to -3 at one generator."""
    name, ring = draw(st.sampled_from(EVEN_RINGS))
    degrees = draw(st.lists(st.integers(-1, 0), min_size=1, max_size=2))
    monos = [m for t in (-1, -2, -3) for m in ring.basis_in_degree(t)]
    rows = []
    for _ in range(draw(st.integers(0, 2)) if monos else 0):
        row = [{} for _ in degrees]
        row[draw(st.integers(0, len(degrees) - 1))] = \
            {draw(st.sampled_from(monos)): 1}
        rows.append(row)
    return GradedModule(ring, [(f"u{j}", d) for j, d in enumerate(degrees)],
                        rows, name=f"{name}<{degrees}|{len(rows)}>")


@settings(max_examples=60, deadline=None)
@given(even_modules(), st.sampled_from(WINDOWS), st.sampled_from([None, 3]))
def test_one_stage_agrees_with_local_duality(mod, w, s_max):
    m = max_ideal(mod.ring)
    exact = _duality_table(mod, m, w)
    g = gamma(mod, m, w, s_max)
    tower = cohomology_table(g, m)
    keys = (set(exact.entries) | set(tower.entries)) - set(tower.flags)
    assert {k: exact.dim(*k) for k in keys} == \
        {k: tower.dim(*k) for k in keys}, mod.name
    lam = completion(mod, m, w, s_max)
    for (s, t), v in lam.homotopy.items():
        if (s, t) not in lam.flags:
            assert v == (mod.dim_in_degree(t) if s == 0 else 0), (mod.name, s, t)


def _exact_below(functor, mod, w):
    """The largest s*(s, t) over t in w, the stage the window alone needs."""
    floor = _stage_floor(functor, mod, max_ideal(mod.ring), w)
    return max(v for (_, t), v in floor.items() if t <= w.t_hi)


def _stage_homology(functor, mod, w, s):
    """The homology on w of stage s alone of the Gamma or Lambda tower."""
    m = max_ideal(mod.ring)
    floor = w.t_lo - s * _ideal_data(m)[1] - 1 if functor == "gamma" \
        else w.t_lo - 1
    X = _materialize(mod, w, floor)
    return homology(_koszul_tower(functor, X, m, w, s, s).stages[-1], w)


PLANE = GradedRing(2, [("x", -1), ("y", -1)], [], name="F2[x,y]")


@pytest.mark.parametrize("mod,s_star", [
    (GradedModule(PLANE, [("u", 0)], [["x^16"]], name="P/(x^16)"), 21),
    (GradedModule.free_module(PLANE, [0], name="P"), 5)])
def test_gamma_stage_floor_is_tight(mod, s_star):
    w = Window(-6, 6)
    assert _exact_below("gamma", mod, w) == s_star
    want = {(-i, t): v for (i, t), v in
            _duality_table(mod, max_ideal(PLANE), w).entries.items()}
    assert _stage_homology("gamma", mod, w, s_star) == want
    assert _stage_homology("gamma", mod, w, s_star - 1) != want


def test_lambda_stage_floor_is_tight():
    mod = GradedModule.free_module(PLANE, [0], name="P")
    w = Window(-6, 6)
    s_star = _exact_below("completion", mod, w)
    assert s_star == 7
    want = {(0, t): mod.dim_in_degree(t) for t in w.t_range()
            if mod.dim_in_degree(t)}
    assert _stage_homology("completion", mod, w, s_star) == want
    assert _stage_homology("completion", mod, w, s_star - 1) != want


def _record(monkeypatch, name):
    calls = []
    real = getattr(torsion, name)

    def recording(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(torsion, name, recording)
    return calls


def _degrees(F):
    return {sigma: f.gen_degrees for sigma, f in F.stages.items()}


@pytest.mark.parametrize("functor", [gamma, completion])
def test_functor_at_the_maximal_ideal_realizes_one_stage(functor, monkeypatch):
    tensors = _record(monkeypatch, "free_tensor")
    maps = _record(monkeypatch, "free_tensor_map")
    mod = GradedModule(PLANE, [("u", 0)], [["x^2"]], name="P/(x^2)")
    m = max_ideal(PLANE)
    res = functor(mod, m, Window(-6, 6))
    # one stage, the one the provenance names, and only the unit map
    assert len(tensors) == 1 and len(maps) == 1
    koszul = dual_koszul_free if functor is gamma else koszul_free
    assert _degrees(tensors[0]) == \
        _degrees(koszul(PLANE, m.gens, res.provenance["stage"]))


def test_absolute_gorenstein_check_realizes_one_stage(monkeypatch):
    tensors = _record(monkeypatch, "free_tensor")
    maps = _record(monkeypatch, "free_tensor_map")
    ring = GradedRing(2, [("x", -1), ("y", -1), ("z", -1)], [],
                      name="F2[x,y,z]")
    rep = absolute_gorenstein_check(ring, max_ideal(ring), Window(-8, 8))
    assert rep["verdict"] is True and rep["shift"] == 0
    # one Koszul stage; the one map is the unit, none joins two stages
    assert len(tensors) == 1 and len(maps) == 1


def test_tate_names_the_larger_stage_it_built():
    mod = GradedModule(PLANE, [("u", 0)], [["x^2"]], name="P/(x^2)")
    m = max_ideal(PLANE)
    w = Window(-6, 6)
    stages = [f(mod, m, w).provenance["stage"] for f in (gamma, completion)]
    assert stages[0] != stages[1]
    assert tate(mod, m, w).provenance["stage"] == max(stages)


# shaped complexes ------------------------------------------------------------

SHAPED_RINGS = [PLANE, PLANE.quotient([PLANE.parse("y^2")], name="Q1"),
                PLANE.quotient([PLANE.parse("x^2"), PLANE.parse("y^3")],
                               name="Q4"),
                PLANE.quotient([PLANE.parse("x*y")], name="F2[x,y]/(xy)")]


def _seeded_cyclic_modules():
    """Two cyclic modules per ring, seeded: the generator in degree 0 or
    -1, up to two monomial relations of degree -2 or -3."""
    rng = random.Random(27)
    monos = ["x^2", "x*y", "y^2", "x^3", "y^3", "x^2*y"]
    for ring in SHAPED_RINGS:
        for _ in range(2):
            rels = [[r] for r in sorted(rng.sample(monos, rng.randint(0, 2)))
                    if ring.normal_form(ring.parse(r))]
            degree = -rng.randint(0, 1)
            yield GradedModule(ring, [("u", degree)], rels,
                               name=f"{ring.name}<{degree}|{rels}>")


def _one_stage(functor, Y, m, w, res, s_max):
    """res, the functor's value on Y, is the single proven stage s*, at
    most the cap s_max: no tail was built."""
    floor = _stage_floor(functor, Y, m, w)
    assert floor is not None
    assert res.provenance["stage"] == max(floor.values()) <= s_max


def _unflagged(table, flags):
    return {k: v for k, v in table.items() if k not in flags and v}


def _same_two_stages_on(functor, Y, m, w, res, flags):
    """Stage s* + 2 of Y's tower has res's homology off flags."""
    s = res.provenance["stage"] + 2
    C = _koszul_tower(functor, Y, m, w, s, s).stages[-1]
    assert C.window.t_lo <= w.t_lo
    assert _unflagged(homology(C, w), flags) == _unflagged(res.homotopy, flags)


@pytest.mark.parametrize("w", [Window(-6, 6), Window(-4, 3)], ids=repr)
@pytest.mark.parametrize("mod", list(_seeded_cyclic_modules()),
                         ids=lambda mod: mod.name)
def test_shaped_complexes_of_the_recollement_check(mod, w):
    m = max_ideal(mod.ring)
    s_max = default_s_max(w)
    # the floor check_recollement gives Gamma, two stages deeper so that
    # stage s* + 2 of the second functor is realized on all of w
    g = gamma(mod, m, extended_window(w, m, s_max + 2), s_max)
    L = localize_away(mod, m, g.provenance["input"].window, s_max,
                      gamma_res=g)

    # Gamma of the Gamma model is Gamma: local duality
    gg = gamma(g.model, m, w, s_max)
    _one_stage("gamma", g.model, m, w, gg, s_max)
    flags = gg.flags | g.flags
    exact = {(-i, t): v for (i, t), v in
             _duality_table(mod, m, w).entries.items()}
    assert _unflagged(gg.homotopy, flags) == _unflagged(exact, flags)
    _same_two_stages_on("gamma", g.model, m, w, gg, flags)

    # Gamma of L = cone(Gamma M -> M) vanishes
    gl = gamma(L.model, m, w, s_max)
    _one_stage("gamma", L.model, m, w, gl, s_max)
    flags = gl.flags | g.flags
    assert not _unflagged(gl.homotopy, flags)
    _same_two_stages_on("gamma", L.model, m, w, gl, flags)

    # Lambda of Hom(F, M), F a free resolution of M, as adjunction_check
    # builds it: the tail rule agrees wherever it certifies.  Its deep
    # pieces can need a stage past the default cap, so the cap is raised to
    # s*, as adjunction_check raises it
    res = minimal_free_resolution(mod, ADJUNCTION_LENGTH)
    deepest = -min(d for f in res.stages for d in f.gen_degrees)
    hom = _resolution_hom(resolution_complex(res), mod, Window(
        w.t_lo, w.t_hi + s_max * _ideal_data(m)[1] + deepest + 1))
    cap = max([s_max, *_stage_floor("completion", hom, m, w).values()])
    left = completion(hom, m, w, cap)
    _one_stage("completion", hom, m, w, left, cap)
    tower = _koszul_tower("completion", hom, m, w, max(1, cap - CONSEC), cap)
    table, tail_flags = _homology_tower(tower.stages, tower.maps,
                                        tower.direction, w)
    flags = left.flags | tail_flags
    assert _unflagged(left.homotopy, flags) == _unflagged(table, flags)
    _same_two_stages_on("completion", hom, m, w, left, left.flags)


def test_a_shallow_complex_is_flagged_below_the_stage_floor():
    """Gamma of a Gamma model realized too shallow for a second stage: that
    stage is known only from higher up, and every degree below is flagged;
    the rest is local duality."""
    mod = GradedModule(PLANE, [("u", 0)], [["x^2"]], name="P/(x^2)")
    m = max_ideal(PLANE)
    w = Window(-6, 6)
    g = gamma(mod, m, Window(w.t_lo - 8, w.t_hi))
    gg = gamma(g.model, m, w)
    floor = gg.model.window.t_lo
    assert w.t_lo < floor <= w.t_hi
    assert {(s, t) for s in range(gg.model.s_min, gg.model.s_max + 1)
            for t in range(w.t_lo, floor)} <= gg.flags
    exact = {(-i, t): v for (i, t), v in
             _duality_table(mod, m, w).entries.items()}
    assert _unflagged(gg.homotopy, gg.flags) == \
        _unflagged(exact, gg.flags)


def _record_towers(monkeypatch):
    """The (functor, first, last, whether the input is a proven Gamma
    model) of every Koszul tower built, and the number of tail-rule
    certifications."""
    towers, tails = [], []
    real_tower, real_tail = torsion._koszul_tower, torsion._homology_tower

    def tower(functor, X, p, w, first, last):
        towers.append((functor, first, last, X in torsion._GAMMA_MODELS))
        return real_tower(functor, X, p, w, first, last)

    def tail(*args):
        tails.append(1)
        return real_tail(*args)

    monkeypatch.setattr(torsion, "_koszul_tower", tower)
    monkeypatch.setattr(torsion, "_homology_tower", tail)
    return towers, tails


def test_recollement_certifies_no_tail(monkeypatch):
    """One check_recollement on F2[x,y]/(x^2) certifies no tail: every
    tower is one stage, and Delta of the Gamma model builds the module's
    own Lambda stage."""
    towers, tails = _record_towers(monkeypatch)
    mod = GradedModule(PLANE, [("u", 0)], [["x^2"]], name="P/(x^2)")
    m = max_ideal(PLANE)
    w = Window(-6, 6)
    assert check_recollement(mod, m, w)["all"]
    assert not tails and all(t[1] == t[2] for t in towers)
    s_lam = max(_stage_floor("completion", mod, m, w).values())
    assert s_lam == 7
    assert [t[1:3] for t in towers if t[0] == "completion" and t[3]] == \
        [(s_lam, s_lam)]
    # the Gamma model it reads is built on (-6, 6 + 7 * 2 + 1)
    assert max(t[2] for t in towers) == 24


# Delta of the Gamma model ----------------------------------------------------


def _delta_at(G, m, w, s):
    """Delta of G from stage s of its Lambda tower alone, nothing flagged."""
    unit = _koszul_tower("completion", G, m, w, s, s).unit
    return homology(shift(cone(unit), -1), w)


@pytest.mark.parametrize("w", [Window(-6, 6), Window(-4, 3)], ids=repr)
@pytest.mark.parametrize("mod", list(_seeded_cyclic_modules()),
                         ids=lambda mod: mod.name)
def test_delta_of_the_gamma_model_is_one_proven_stage(mod, w):
    """Lambda of a proven Gamma model builds the module's own Lambda stage
    s: it is the module's completion (Lambda Gamma = Lambda), and Delta
    there equals Delta built directly at stage s + 3."""
    m = max_ideal(mod.ring)
    s = max(_stage_floor("completion", mod, m, w).values())
    # a ceiling that stage s + 3 reads exactly too
    g = gamma(mod, m, Window(w.t_lo, w.t_hi + (s + 3) * _ideal_data(m)[1] + 1))
    lam = completion(g.model, m, w)
    assert lam.provenance["stage"] == s and not lam.flags
    own = completion(mod, m, w)
    assert not own.flags and lam.homotopy == own.homotopy
    dg = delta(g.model, m, w)
    assert dg.provenance["stage"] == s and not dg.flags
    assert dg.homotopy == _delta_at(g.model, m, w, s + 3)


@pytest.mark.parametrize("w", [Window(-6, 6), Window(-4, 3)], ids=repr)
@pytest.mark.parametrize("mod", list(_seeded_cyclic_modules()),
                         ids=lambda mod: mod.name)
def test_a_gamma_model_with_a_low_ceiling_is_flagged(mod, w):
    """A Gamma model built on the window alone, or capped four stages short,
    is exact only up to a ceiling below what Lambda's stage s reads: Delta
    flags every bidegree whose reads pass it, and agrees with Delta of an
    exact model everywhere else."""
    m = max_ideal(mod.ring)
    s = max(_stage_floor("completion", mod, m, w).values())
    tw = _ideal_data(m)[1]
    w_big = Window(w.t_lo, w.t_hi + s * tw + 1)
    g = gamma(mod, m, w_big)
    want = _delta_at(g.model, m, w, s)
    for low in (gamma(mod, m, w),
                gamma(mod, m, w_big, g.provenance["stage"] - 4)):
        ceiling = torsion._GAMMA_MODELS[low.model][1]
        assert ceiling < w.t_hi + s * tw
        dg = delta(low.model, m, w)
        assert dg.flags
        assert not {(b, t) for b, t in dg.flags if t + s * tw <= ceiling}
        assert _unflagged(dg.homotopy, dg.flags) == _unflagged(want, dg.flags)


@pytest.mark.parametrize("w", [Window(-6, 6), Window(-4, 3)], ids=repr)
@pytest.mark.parametrize("mod", list(_seeded_cyclic_modules()),
                         ids=lambda mod: mod.name)
def test_recollement_of_seeded_modules_builds_one_stage(mod, w, monkeypatch):
    """Every tower check_recollement builds is one stage, the adjunction
    check's Lambda(Hom(F, M)) too where its s* passes the cap."""
    towers, tails = _record_towers(monkeypatch)
    assert check_recollement(mod, max_ideal(mod.ring), w)["all"]
    assert not tails and all(t[1] == t[2] for t in towers)


def _bare_inputs():
    """Complexes built the way the tail-rule reference tests build them:
    a module_complex (test_support_reference, test_power_reference) and a
    Koszul object (test_tower_reference)."""
    from test_support_reference import _module_as_complex
    w = Window(-5, 3)
    mod = GradedModule(PLANE, [("u", 0)], [["x^2"], ["y^2"]], name="fl")
    yield pytest.param(_module_as_complex(mod, w), w, id="support")
    w = Window(-8, 8)
    R = GradedModule.free_module(PLANE, [0])
    yield pytest.param(module_complex(R, Window(w.t_lo - 2 * 20 - 1, w.t_hi)),
                       w, id="power")
    w = Window(-3, 3)
    yield pytest.param(koszul_object(R, [PLANE.gen_poly(0)],
                                     Window(w.t_lo - 5 * 2 - 1, w.t_hi)),
                       w, id="tower")


@pytest.mark.parametrize("X,w", list(_bare_inputs()))
def test_complexes_with_no_shape_keep_the_tail_rule(X, w, monkeypatch):
    m = max_ideal(PLANE)
    assert torsion._shape(X) is None
    assert _stage_floor("gamma", X, m, w) is None
    towers, tails = _record_towers(monkeypatch)
    for functor in (gamma, completion):
        assert functor(X, m, w).provenance["stage"] == default_s_max(w)
    assert len(tails) == 2 and all(t[1] < t[2] for t in towers)
