"""Degreewise realization of finitely presented modules against a reference.

`reference_realize` is the realization `GradedModule._realize` made before it
learned the vanishing rule: in every degree it builds the whole relation span
(`reference_relation_span`) and eliminates it.  `reference_element_action`
is `GradedModule.element_action` on top of it.  Both paths must agree in
every degree on the basis, the projection, the free columns, the labels and
the element actions, whatever order the degrees are asked in.
`GradedModule.relation_vectors`, which reads the echelon form of the
relation span off the realization, must equal the rows of its elimination.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from localduality.cli import Environment, corpus, parse
from localduality.exactla import SparseMatrix, quotient_projection, rref
from localduality.graded import GradedModule, GradedRing, Window, tor


# references --------------------------------------------------------------------


def reference_relation_span(mod, t):
    """Row matrix spanning the relation submodule in degree t."""
    basis = mod.free.basis_in_degree(t)
    pos = {bm: i for i, bm in enumerate(basis)}
    rows = []
    ring = mod.ring
    for row in mod.relations:
        rdeg = None
        for j, p in enumerate(row):
            if p:
                rdeg = ring.poly_degree(p) + mod.generators[j][1]
                break
        if rdeg is None:
            continue
        for mu in ring.basis_in_degree(t - rdeg):
            vec = {}
            for j, p in enumerate(row):
                if not p:
                    continue
                prod = ring.normal_form(ring.poly_mul({mu: 1}, p))
                for m, c in prod.items():
                    key = (j, m)
                    if key in pos:
                        vec[pos[key]] = (vec.get(pos[key], 0) + c) % ring.characteristic
            if any(vec.values()):
                rows.append(vec)
    ent = {(i, j): c for i, vec in enumerate(rows) for j, c in vec.items() if c}
    return SparseMatrix(ring.field, len(rows), len(basis), ent)


def reference_realize(mod, t):
    """(free basis, projection, free columns) of degree t, by elimination."""
    proj, free_cols = quotient_projection(reference_relation_span(mod, t))
    return mod.free.basis_in_degree(t), proj, free_cols


def reference_labels(mod, t):
    basis, _, free_cols = reference_realize(mod, t)
    out = []
    for c in free_cols:
        i, m = basis[c]
        mono = mod.ring.poly_str({m: 1})
        gen = mod.generators[i][0]
        out.append(gen if mono == "1" else f"{mono}*{gen}")
    return out


def reference_element_action(mod, p, t):
    ring = mod.ring
    p = ring.normal_form(p)
    if not p:
        return SparseMatrix(ring.field, 0, reference_realize(mod, t)[1].rows)
    t2 = t + ring.poly_degree(p)
    basis, _, free_cols = reference_realize(mod, t)
    tgt_basis, tproj, _ = reference_realize(mod, t2)
    tpos = {bm: i for i, bm in enumerate(tgt_basis)}
    proj_cols = {}
    for (r, c), v in tproj.entries.items():
        proj_cols.setdefault(c, []).append((r, v))
    ent = {}
    for j, c in enumerate(free_cols):
        i, m = basis[c]
        col = {}
        for mm, cc in ring.normal_form(ring.poly_mul({m: 1}, p)).items():
            for r, v in proj_cols.get(tpos.get((i, mm)), ()):
                col[r] = col.get(r, 0) + cc * v
        for r in sorted(col):
            v = col[r] % ring.characteristic
            if v:
                ent[(r, j)] = v
    return SparseMatrix(ring.field, tproj.rows, len(free_cols), ent)


def same_matrix(a, b):
    return (a.rows, a.cols, a.entries) == (b.rows, b.cols, b.entries)


def assert_same_as_reference(mod, degrees):
    """Ask mod for each degree in the given order, then compare everything."""
    for t in degrees:
        mod.basis_in_degree(t)
    ring = mod.ring
    elements = [ring.gen_poly(i) for i in range(ring.n)]
    elements.append(ring.poly_mul(ring.gen_poly(0), ring.gen_poly(ring.n - 1)))
    for t in degrees:
        basis, proj, free_cols = mod._realize(t)
        rbasis, rproj, rfree = reference_realize(mod, t)
        assert basis == rbasis, t
        assert same_matrix(proj, rproj), t
        assert free_cols == rfree, t
        assert mod.basis_in_degree(t) == reference_labels(mod, t), t
        assert mod.dim_in_degree(t) == len(rfree), t
        for p in elements:
            assert same_matrix(mod.element_action(p, t),
                               reference_element_action(mod, p, t)), (t, p)


def all_ints(values):
    return all(type(v) is int for v in values)


def assert_relation_vectors_are_the_echelon(mod, degrees):
    for t in degrees:
        red, pivots = rref(reference_relation_span(mod, t))
        got = mod.relation_vectors(t)
        assert isinstance(got, SparseMatrix) and all_ints(got.entries.values())
        assert (got.rows, got.cols) == (len(pivots), red.cols), t
        # reduced, in range and without stored zeros, as the validating
        # constructor would build it
        assert got.entries == SparseMatrix(got.field, got.rows, got.cols,
                                           got.entries).entries, t
        assert got.to_dense() == red.to_dense()[:len(pivots)], t


def orders(lo, hi, perm=None):
    up = list(range(lo, hi + 1))
    return {"bottom-up": up, "top-down": up[::-1], "random": perm or up}


# drawn presentations ------------------------------------------------------------


@st.composite
def presentations(draw):
    """(ring, generators, relations): ring weights 1-3, GF(2), GF(3) or
    GF(5) with odd generators, several generators in spread-out degrees, and
    either a finite-length module or random relation rows."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    odd = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    names = ["x", "y", "z"][:n]
    ring_rels = []
    if draw(st.booleans()) and not (odd[0] and p != 2):
        ring_rels.append(f"{names[0]}^{draw(st.integers(2, 3))}")
    ring = GradedRing(p, [(nm, -w, o) for nm, w, o in zip(names, weights, odd)],
                      ring_rels)
    gen_degrees = draw(st.lists(st.integers(-6, 0), min_size=1, max_size=3))
    gens = [(f"u{j}", d) for j, d in enumerate(gen_degrees)]
    rels = []
    if draw(st.booleans()):
        # finite length: every even generator to a power kills every generator
        for j in range(len(gens)):
            for i in range(n):
                if not ring.parity[i]:
                    row = [{}] * len(gens)
                    e = tuple(draw(st.integers(1, 3)) if k == i else 0
                              for k in range(n))
                    row[j] = {e: 1}
                    rels.append(row)
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.integers(min(gen_degrees) - 4, max(gen_degrees)))
        parity = draw(st.integers(0, 1))
        row = []
        for _, dj in gens:
            poly = {}
            for m in ring.basis_in_degree(d - dj):
                if sum(e for e, o in zip(m, ring.parity) if o) % 2 == parity:
                    c = draw(st.integers(0, p - 1))
                    if c:
                        poly[m] = c
            row.append(poly)
        rels.append(row)
    return ring, gens, rels


@settings(max_examples=60, deadline=None)
@given(presentations(), st.sampled_from(["bottom-up", "top-down", "random"]),
       st.randoms(use_true_random=False))
def test_realization_matches_reference_on_drawn_modules(pres, order, rnd):
    ring, gens, rels = pres
    lo, hi = min(d for _, d in gens) - 7, max(d for _, d in gens) + 1
    perm = list(range(lo, hi + 1))
    rnd.shuffle(perm)
    mod = GradedModule(ring, gens, rels)
    assert_same_as_reference(mod, orders(lo, hi, perm)[order])
    assert_relation_vectors_are_the_echelon(GradedModule(ring, gens, rels),
                                            perm)


# hand-picked modules the vanishing rule must not get wrong ------------------------


def weight_two_square():
    """F2[x:-2] and M = R/(x^2): zero in degree -1, x*u in degree -2."""
    ring = GradedRing(2, [("x", -2)], [])
    return GradedModule(ring, [("u", 0)], [["x^2"]])


def gap_between_generators():
    """Generators in degrees 0 and -5 over F2[x] with x*u = 0: zero in
    degrees -1 ... -4, nonzero in degree -5."""
    ring = GradedRing(2, [("x", -1)], [])
    return GradedModule(ring, [("u", 0), ("v", -5)], [["x", "0"], ["0", "x^3"]])


def mixed_weights_residue_field():
    ring = GradedRing(3, [("a", -1, True), ("b", -2), ("c", -3)], [])
    return GradedModule.residue_field(ring)


def odd_generators_over_gf5():
    ring = GradedRing(5, [("x", -1), ("e", -2, True), ("f", -3, True)], [])
    return GradedModule(ring, [("u", 0), ("v", -2)],
                        [["x^2", "0"], ["e*f", "x^3"], ["0", "x*e"]])


def free_plane():
    ring = GradedRing(2, [("x", -1), ("y", -1)], [])
    return GradedModule.free_module(ring, [0, -3])


HAND_PICKED = [weight_two_square, gap_between_generators,
               mixed_weights_residue_field, odd_generators_over_gf5, free_plane]


@pytest.mark.parametrize("order", ["bottom-up", "top-down", "random"])
@pytest.mark.parametrize("build", HAND_PICKED, ids=lambda b: b.__name__)
def test_realization_matches_reference_on_hand_picked_modules(build, order):
    perm = [-3, 1, -12, -5, 0, -1, -8, -2, -10, -4, -6, -11, -7, -9]
    assert_same_as_reference(build(), orders(-12, 1, perm)[order])


def test_vanishing_rule_gives_the_expected_dimensions():
    assert [weight_two_square().dim_in_degree(t) for t in range(-6, 1)] == \
        [0, 0, 0, 0, 1, 0, 1]
    mod = gap_between_generators()
    assert [mod.dim_in_degree(t) for t in range(-9, 1)] == \
        [0, 0, 1, 1, 1, 0, 0, 0, 0, 1]


# relation_vectors -------------------------------------------------------------


def test_relation_vectors_are_the_echelon_on_corpus_rings():
    for entry in corpus():
        spec, diags = parse(entry.text)
        assert spec is not None and not diags
        ring = Environment(spec).rings["R"]
        x0 = ring.gen_poly(0)
        mods = [GradedModule.residue_field(ring),
                GradedModule(ring, [("a", 0)], [[ring.poly_mul(x0, x0)]]),
                GradedModule(ring, [("a", 0), ("b", -1)], [[x0, {}], [{}, x0]])]
        for mod in mods:
            assert_relation_vectors_are_the_echelon(mod, range(1, -8, -1))
    for build in HAND_PICKED:
        assert_relation_vectors_are_the_echelon(build(), range(-12, 2))


def test_tor_of_residue_field_builds_no_span_below_minus_one(monkeypatch):
    """Tor(k, k) over F2[x0..x3] at floor -10 builds the relation span of k
    in degrees 0 and -1 only: k vanishes below 0, and the resolution reads
    the echelon form off the realization."""
    seen = []
    original = GradedModule._relation_span

    def counting(self, t):
        seen.append(t)
        return original(self, t)

    monkeypatch.setattr(GradedModule, "_relation_span", counting)
    ring = GradedRing(2, [(f"x{i}", -1) for i in range(4)], [])
    table = tor(GradedModule.residue_field(ring), GradedModule.residue_field(ring),
                Window(-10, 0, 0, 4))
    assert {k: v for k, v in table.items() if v} == \
        {(i, -i): math.comb(4, i) for i in range(5)}
    assert seen and min(seen) >= -1
