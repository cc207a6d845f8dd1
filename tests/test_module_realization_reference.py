"""Degreewise realization of finitely presented modules against a reference.

`reference_realize` builds the whole relation span in a degree
(`reference_relation_span`) and eliminates it.  With each generator's
columns in descending ring order the leftmost pivot of an echelon row is
its leading term in position-over-term order, largest term leading, so
the free columns are the Groebner standard monomials and the projection of
a free-basis monomial is its normal form; the result is mapped back to the
ascending free-basis order.  `reference_element_action` is
`GradedModule.element_action` on top of it.  The module must agree with it
in every degree on the standard monomials, the labels, the dimensions, the
normal form of every free-basis monomial and the element actions,
whatever order the degrees are asked in.  Where the relation span is
spanned by monomials, the module also equals the realization with
ascending columns (leading="smallest"), the smallest term leading, which
the module made before it kept a Groebner basis.
`GradedModule.relation_vectors`, the echelon form of the relation span in
ascending columns, must equal the rows of its elimination.  The generator
actions of `module_complex` and the actions of drawn ring elements must
equal the reference entry for entry, and a module whose Groebner basis has
only one-term elements is realized without a module normal form.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from localduality import graded
from localduality.cli import Environment, corpus, parse
from localduality.complexes import module_complex
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


def reference_realize(mod, t, leading="largest"):
    """(free basis, projection, free columns) of degree t, by elimination.

    The relation span is eliminated with each generator's columns in
    descending ring order (leading="largest") or in the ascending order of
    the free basis (leading="smallest").  The free columns index the free
    basis in ascending order, and the projection maps free-basis
    coordinates onto them."""
    basis = mod.free.basis_in_degree(t)
    span = reference_relation_span(mod, t)
    order = list(range(len(basis)))     # eliminated column j is basis[order[j]]
    if leading == "largest":
        order.sort(key=lambda c: (basis[c][0], -c))
    at = {c: j for j, c in enumerate(order)}
    proj, free = quotient_projection(SparseMatrix(
        span.field, span.rows, span.cols,
        {(r, at[c]): v for (r, c), v in span.entries.items()}))
    free_cols = sorted(order[j] for j in free)
    row_of = {c: i for i, c in enumerate(free_cols)}
    ent = {(row_of[order[free[r]]], order[j]): v
           for (r, j), v in proj.entries.items()}
    return basis, SparseMatrix(span.field, len(free_cols), len(basis), ent), \
        free_cols


def reference_labels(mod, t, leading="largest"):
    basis, _, free_cols = reference_realize(mod, t, leading)
    out = []
    for c in free_cols:
        i, m = basis[c]
        mono = mod.ring.poly_str({m: 1})
        gen = mod.generators[i][0]
        out.append(gen if mono == "1" else f"{mono}*{gen}")
    return out


def reference_element_action(mod, p, t, leading="largest"):
    ring = mod.ring
    p = ring.normal_form(p)
    if not p:
        return SparseMatrix(ring.field, 0, reference_realize(mod, t, leading)[1].rows)
    t2 = t + ring.poly_degree(p)
    basis, _, free_cols = reference_realize(mod, t, leading)
    tgt_basis, tproj, _ = reference_realize(mod, t2, leading)
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


def normal_forms(mod, t):
    """{free-basis column: {basis row of M_t: coefficient}}, the module's
    normal form of every free-basis monomial of degree t."""
    standard = mod._gb.standard(t)
    row_of = {bm: r for r, bm in enumerate(standard)}
    out = {}
    for c, bm in enumerate(mod.free.basis_in_degree(t)):
        nf = {bm: 1} if bm in row_of else mod._gb.normal_form(bm)
        out[c] = {row_of[key]: v for key, v in nf.items()}
    return out


def projection_columns(proj):
    out = {c: {} for c in range(proj.cols)}
    for (r, c), v in proj.entries.items():
        out[c][r] = v
    return out


def assert_same_as_reference(mod, degrees, leading="largest"):
    """Ask mod for each degree in the given order, then compare everything."""
    for t in degrees:
        mod.basis_in_degree(t)
    ring = mod.ring
    elements = [ring.gen_poly(i) for i in range(ring.n)]
    elements.append(ring.poly_mul(ring.gen_poly(0), ring.gen_poly(ring.n - 1)))
    for t in degrees:
        basis, proj, free_cols = reference_realize(mod, t, leading)
        assert mod._gb.standard(t) == [basis[c] for c in free_cols], t
        assert mod.basis_in_degree(t) == reference_labels(mod, t, leading), t
        assert mod.dim_in_degree(t) == len(free_cols), t
        assert normal_forms(mod, t) == projection_columns(proj), t
        for p in elements:
            assert same_matrix(mod.element_action(p, t),
                               reference_element_action(mod, p, t, leading)), (t, p)


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


# hand-picked modules ---------------------------------------------------------------


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


def ring_basis_found_later():
    """M = R/(xz) over R = F2[x,y,z]/(xy + z^2, x^2z + y^3), whose Groebner
    basis gains elements below its relations' degrees: asked top-down, each
    resumed completion of M's relations pairs xz with them."""
    ring = GradedRing(2, [("x", -1), ("y", -1), ("z", -1)],
                      ["x*y + z^2", "x^2*z + y^3"])
    return GradedModule(ring, [("u", 0)], [["x*z"]])


def free_plane():
    ring = GradedRing(2, [("x", -1), ("y", -1)], [])
    return GradedModule.free_module(ring, [0, -3])


HAND_PICKED = [weight_two_square, gap_between_generators,
               mixed_weights_residue_field, odd_generators_over_gf5,
               ring_basis_found_later, free_plane]


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


def test_tor_of_residue_field_reduces_nothing_below_minus_one(monkeypatch):
    """Tor(k, k) over F2[x0..x3] at floor -10 reads relation rows and
    computes module normal forms in degrees 0 and -1 only, and eliminates
    nothing: k has no standard monomial below 0, the resolution reads the
    echelon form of the relations in degrees 0 and -1 alone, and there the
    rows of the monomial relations are their own echelon form."""
    normal_forms, read, eliminated = [], [], []
    nf, vectors, elim = (graded._Submodule.normal_form,
                         GradedModule.relation_vectors, graded.rref)

    def counting_nf(self, key):
        normal_forms.append(self.degrees[key[0]] - self.ring.mono_weight(key[1]))
        return nf(self, key)

    def counting_vectors(self, t):
        read.append(t)
        return vectors(self, t)

    def counting_elim(m):
        eliminated.append(m)
        return elim(m)

    monkeypatch.setattr(graded._Submodule, "normal_form", counting_nf)
    monkeypatch.setattr(GradedModule, "relation_vectors", counting_vectors)
    monkeypatch.setattr(graded, "rref", counting_elim)
    ring = GradedRing(2, [(f"x{i}", -1) for i in range(4)], [])
    table = tor(GradedModule.residue_field(ring), GradedModule.residue_field(ring),
                Window(-10, 0, 0, 4))
    assert {k: v for k, v in table.items() if v} == \
        {(i, -i): math.comb(4, i) for i in range(5)}
    assert read and min(read) >= -1
    assert normal_forms and min(normal_forms) >= -1
    assert not eliminated


# monomial presentations keep the realization with ascending columns -------------

# the shapes of the benchmark's recollement workload: cyclic modules over
# F2[x,y] and its quotients, generator in degree 0 or -1
RECOLLEMENT_RINGS = {"R": [], "Q1": ["y^2"], "Q2": ["x^3"], "Q4": ["x^2", "y^3"]}
RECOLLEMENT_MODULES = [("Q1", ["x^2"]), ("Q1", ["x^3"]), ("Q2", ["y^2"]),
                       ("Q2", ["y^3"]), ("Q4", []), ("Q4", ["x^2*y"]),
                       ("R", ["x^2", "y^2"]), ("R", ["x^2", "y^3"]),
                       ("R", ["x^3", "y^2"]), ("R", ["x^2"]), ("R", ["y^2"])]
# the shapes of the benchmark's Tor/Ext workload over F2[x0..x3]
TOR_EXT_SHAPES = [[(1, 1, 0, 0), (0, 0, 2, 0), (0, 1, 0, 2)],
                  [(2, 0, 0, 0), (0, 1, 1, 0)]]


def recollement_modules():
    base = GradedRing(2, [("x", -1), ("y", -1)], [], name="R")
    rings = {name: base.quotient([base.parse(r) for r in rels], name=name)
             for name, rels in RECOLLEMENT_RINGS.items()}
    for name, rels in RECOLLEMENT_MODULES:
        for degree in (0, -1):
            yield GradedModule(rings[name], [("a", degree)], [[r] for r in rels])


def tor_ext_modules():
    names = [f"x{i}" for i in range(4)]
    ring = GradedRing(2, [(n, -1) for n in names], [])
    for shape in TOR_EXT_SHAPES:
        for perm in ([0, 1, 2, 3], [2, 0, 3, 1]):
            rows = [["*".join(f"{names[j]}^{m[perm[j]]}" for j in range(4)
                              if m[perm[j]])] for m in shape]
            yield GradedModule(ring, [("a", 0)], rows)
    yield GradedModule.residue_field(ring)


@pytest.mark.parametrize("leading", ["largest", "smallest"])
def test_monomial_presentations_match_both_references(leading):
    for mod in recollement_modules():
        assert_same_as_reference(mod, [-3, 1, -9, -1, 0, -6, -2, -8, -4, -7, -5],
                                 leading)
    for mod in tor_ext_modules():
        assert_same_as_reference(mod, [-2, 0, -6, 1, -1, -4, -3, -5], leading)


# drawn modules over the corpus rings ---------------------------------------------


def corpus_rings():
    rings = [Environment(parse(entry.text)[0]).rings["R"] for entry in corpus()]
    # the cusp: a ring relation that is not a monomial
    rings.append(GradedRing(3, [("x", -2), ("y", -3)], ["x^3 + y^2"],
                            name="cusp"))
    return rings


CORPUS_RINGS = corpus_rings()


@st.composite
def corpus_presentations(draw):
    """A module over a corpus ring (odd_line: an odd generator over F3) or
    the cusp: one to three generators, and random relation rows whose terms
    share their parity."""
    ring = draw(st.sampled_from(CORPUS_RINGS))
    gen_degrees = draw(st.lists(st.integers(-4, 0), min_size=1, max_size=3))
    gens = [(f"u{j}", d) for j, d in enumerate(gen_degrees)]
    rels = []
    for _ in range(draw(st.integers(0, 4))):
        d = draw(st.integers(min(gen_degrees) - 4, max(gen_degrees)))
        parity = draw(st.integers(0, 1))
        row = []
        for _, dj in gens:
            poly = {}
            for m in ring.basis_in_degree(d - dj):
                if sum(e for e, o in zip(m, ring.parity) if o) % 2 == parity:
                    c = draw(st.integers(0, ring.characteristic - 1))
                    if c:
                        poly[m] = c
            row.append(poly)
        rels.append(row)
    return ring, gens, rels


@settings(max_examples=40, deadline=None)
@given(corpus_presentations(), st.randoms(use_true_random=False))
def test_realization_matches_reference_on_corpus_rings(pres, rnd):
    ring, gens, rels = pres
    lo, hi = min(d for _, d in gens) - 6, max(d for _, d in gens) + 1
    perm = list(range(lo, hi + 1))
    rnd.shuffle(perm)
    assert_same_as_reference(GradedModule(ring, gens, rels), perm)
    assert_relation_vectors_are_the_echelon(GradedModule(ring, gens, rels),
                                            perm)


# realized actions ----------------------------------------------------------------


@st.composite
def ring_elements(draw, ring):
    """A homogeneous element of degree -1 ... -4 with random coefficients,
    its terms of either parity."""
    degree = draw(st.integers(-4, -1))
    poly = {}
    for m in ring.basis_in_degree(degree):
        c = draw(st.integers(0, ring.characteristic - 1))
        if c:
            poly[m] = c
    return poly


def assert_actions_match_reference(mod, lo, hi, degrees):
    """The generator actions of module_complex(mod) on (lo, hi), built
    after mod was asked for the given degrees, equal the reference."""
    for t in degrees:
        mod.basis_in_degree(t)
    X = module_complex(mod, Window(lo, hi))
    ring = mod.ring
    for g, gen in enumerate(ring.generators):
        for t in degrees:
            if t + gen.degree >= lo:
                assert same_matrix(X.action(g, 0, t), reference_element_action(
                    mod, ring.gen_poly(g), t)), (g, t)


@settings(max_examples=40, deadline=None)
@given(st.one_of(presentations(), corpus_presentations()), st.data(),
       st.randoms(use_true_random=False))
def test_realized_actions_match_reference_on_drawn_modules(pres, data, rnd):
    ring, gens, rels = pres
    lo, hi = min(d for _, d in gens) - 6, max(d for _, d in gens) + 1
    perm = list(range(lo, hi + 1))
    rnd.shuffle(perm)
    assert_actions_match_reference(GradedModule(ring, gens, rels), lo, hi, perm)
    mod = GradedModule(ring, gens, rels)
    for p in [data.draw(ring_elements(ring)) for _ in range(2)]:
        for t in perm:
            assert same_matrix(mod.element_action(p, t),
                               reference_element_action(mod, p, t)), (t, p)


def count_module_normal_forms(monkeypatch):
    """The list of module normal forms asked for from here on, each named by
    the submodule asked."""
    calls = []
    nf = graded._Submodule.normal_form

    def counting(self, key):
        calls.append(self.what)
        return nf(self, key)

    monkeypatch.setattr(graded._Submodule, "normal_form", counting)
    return calls


def test_monomial_relations_realize_without_a_normal_form(monkeypatch):
    # F2[x0..x3]/(x0^2, x1*x2): every basis element has one term, so a
    # product off the staircase is zero and no column reads a normal form
    calls = count_module_normal_forms(monkeypatch)
    ring = GradedRing(2, [(f"x{i}", -1) for i in range(4)], [])
    mod = GradedModule(ring, [("a", 0)], [["x0^2"], ["x1*x2"]])
    X = module_complex(mod, Window(-16, 0))
    assert X.dims[(0, -16)] == mod.dim_in_degree(-16) > 0
    assert len(X.actions) == 4 * 16
    assert not calls


def test_quotient_rings_and_long_relations_match_reference(monkeypatch):
    # a monomial basis over a quotient ring reads the ring's normal forms;
    # a relation of two terms, over GF(5) with odd generators, the module's
    perm = [-3, 1, -12, -5, 0, -1, -8, -2, -10, -4, -6, -11, -7, -9]
    calls = count_module_normal_forms(monkeypatch)
    mod = ring_basis_found_later()
    assert_actions_match_reference(mod, -12, 1, perm)
    assert all(mod._gb._monomial)
    assert set(calls) == {"the relations of ring R"}
    calls.clear()
    mod = odd_generators_over_gf5()
    assert_actions_match_reference(mod, -12, 1, perm)
    assert not all(mod._gb._monomial)
    assert "the relations of module M" in calls
