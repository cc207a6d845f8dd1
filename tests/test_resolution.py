"""Minimal free resolutions: a differential test against the list-based
degreewise walk the Schreyer-frame floors replaced, taken below the
resolution's lowest degree, and structural properties (d∘d = 0, exactness,
minimality, Koszul Betti numbers)."""

import math

from hypothesis import given, settings, strategies as st

from localduality.cli import Environment, corpus, parse
from localduality.exactla import SparseMatrix, rank, rref
from localduality.graded import (FreeModule, GradedModule, GradedRing, Window,
                                 minimal_free_resolution, poly_matrix_realize)
from conftest import kernel_basis


# reference: the list-based generator choice, kept verbatim but for the
# {column: value} row that element_from_coords takes -------------------------


def reference_minimal_generators(ring, free, vectors_by_degree, w):
    top = max((d for d in free.gen_degrees), default=0)
    chosen = []
    for t in range(min(top, w.t_hi), w.t_lo - 1, -1):
        basis = free.basis_in_degree(t)
        if not basis:
            continue
        span_vectors = vectors_by_degree(t)
        if not span_vectors:
            continue
        # span of ring multiples of already chosen generators in degree t
        old_rows = []
        for (dg, row) in chosen:
            for mu in ring.basis_in_degree(t - dg):
                scaled = [ring.normal_form(ring.poly_mul({mu: 1}, p)) if p else {}
                          for p in row]
                old_rows.append(free.coords(scaled, t, basis))
        f = ring.field
        old = SparseMatrix(f, len(old_rows), len(basis),
                           {(i, j): v for i, row in enumerate(old_rows)
                            for j, v in enumerate(row)})
        red, pivots = rref(old)
        pivot_rows = red.to_dense()[:len(pivots)]
        for v in span_vectors:
            vv = list(v)
            # reduce against current row space
            for prow, pc in zip(pivot_rows, pivots):
                c = vv[pc]
                if c:
                    vv = [(a - c * b) % ring.characteristic for a, b in zip(vv, prow)]
            if any(vv):
                # normalize leading coordinate
                lead = next(i for i, x in enumerate(vv) if x)
                inv = f.inv(vv[lead])
                vv = [(x * inv) % ring.characteristic for x in vv]
                chosen.append((t, free.element_from_coords(dict(enumerate(vv)), t)))
                # insert into reduced row space
                pivot_rows.append(vv)
                pivots.append(lead)
                order = sorted(range(len(pivots)), key=lambda i: pivots[i])
                pivot_rows = [pivot_rows[i] for i in order]
                pivots = [pivots[i] for i in order]
    return chosen


def reference_resolution(mod, length, w):
    """(stages, diffs) as the list-based minimal_free_resolution built them."""
    ring = mod.ring
    stages = [FreeModule(ring, [d for _, d in mod.generators],
                         [n for n, _ in mod.generators])]
    diffs = []

    def relation_vectors(t):
        span = mod.free.multiples(mod.relations, mod.row_degrees, t)
        red, pivots = rref(span)
        dense = red.to_dense()
        return [dense[i] for i in range(len(pivots))]

    prev_vectors = relation_vectors
    prev_free = stages[0]
    for step in range(length):
        gens = reference_minimal_generators(ring, prev_free, prev_vectors, w)
        if not gens:
            stages.append(FreeModule(ring, []))
            diffs.append({})
            prev_vectors = lambda t: []
            prev_free = stages[-1]
            continue
        new_free = FreeModule(ring, [d for d, _ in gens],
                              [f"s{step + 1}_{i}" for i in range(len(gens))])
        dmat = {}
        for b, (dg, row) in enumerate(gens):
            for a, p in enumerate(row):
                if p:
                    dmat[(a, b)] = p
        stages.append(new_free)
        diffs.append(dmat)

        def kernel_vectors(t, nf=new_free, pf=prev_free, dm=dmat):
            return kernel_basis(poly_matrix_realize(ring, nf, pf, dm, t))

        prev_vectors = kernel_vectors
        prev_free = new_free
    return stages, diffs


def ordered(diff):
    """A differential with its entry order and every polynomial's term order."""
    return [(key, list(p.items())) for key, p in diff.items()]


def lowest_degree(res):
    return min((d for s in res.stages for d in s.gen_degrees), default=0)


def reference_window(mod, res, floor=0):
    """A window for the reference walk: from above every generator of mod
    to below the resolution's lowest degree and `floor`, so a generator the
    resolution missed below its lowest degree shows as a difference."""
    top = max((d for _, d in mod.generators), default=0)
    return Window(min(floor, lowest_degree(res)) - 3, top)


def assert_same_as_reference(mod, length, floor=0):
    res = minimal_free_resolution(mod, length)
    stages, diffs = reference_resolution(mod, length,
                                         reference_window(mod, res, floor))
    assert [(s.gen_degrees, s.labels) for s in res.stages] == \
        [(s.gen_degrees, s.labels) for s in stages]
    assert [ordered(d) for d in res.diffs] == [ordered(d) for d in diffs]
    for d in res.diffs:
        for p in d.values():
            assert all(type(c) is int for c in p.values())
    return res


# the shapes of the benchmark's Tor/Ext workload over F2[x0..x3]
BENCH_SHAPES = [[(1, 1, 0, 0), (0, 0, 2, 0), (0, 1, 0, 2)],
                [(2, 0, 0, 0), (0, 1, 1, 0)]]


def monomial_text(names, m):
    return "*".join(f"{n}^{e}" for n, e in zip(names, m) if e) or "1"


def cyclic(ring, monos, degree=0):
    names = [g.name for g in ring.generators]
    return GradedModule(ring, [("a", degree)],
                        [[monomial_text(names, m)] for m in monos])


# differential test ----------------------------------------------------------


def test_same_as_reference_on_corpus_rings():
    for entry in corpus():
        spec, diags = parse(entry.text)
        assert spec is not None and not diags
        ring = Environment(spec).rings["R"]
        k = GradedModule.residue_field(ring)
        square = GradedModule(ring, [("a", 0)],
                              [[ring.poly_mul(ring.gen_poly(0), ring.gen_poly(0))]])
        for mod in (k, square):
            # the reference walks below the resolution's lowest degree:
            # over q8, k has a stage-3 generator in degree -7
            assert_same_as_reference(mod, 3, -6)


def test_same_as_reference_on_benchmark_shapes():
    names = [f"x{i}" for i in range(4)]
    ring = GradedRing(2, [(n, -1) for n in names], [])
    perm = [2, 0, 3, 1]
    shapes = BENCH_SHAPES + [[tuple(m[j] for j in perm) for m in shape]
                             for shape in BENCH_SHAPES]
    for shape in shapes:
        assert_same_as_reference(cyclic(ring, shape), 4, -7)
    assert_same_as_reference(GradedModule.residue_field(ring), 5, -7)


def test_same_as_reference_odd_characteristic_graded_commutative():
    ring = GradedRing(3, [("a", -1, True), ("b", -1, True), ("c", -2)], [])
    assert_same_as_reference(GradedModule.residue_field(ring), 4, -6)
    assert_same_as_reference(
        GradedModule(ring, [("u", 0)], [["a*b + c"], ["c^2"]]), 4, -6)
    # two generators, relations mixing them; every row is homogeneous in
    # parity, as GradedModule requires with two odd generators
    assert_same_as_reference(
        GradedModule(ring, [("u", 0), ("v", 0)], [["a", "b"], ["c", "a*b"]]), 4, -6)
    ring5 = GradedRing(5, [("x", -1), ("e", -1, True)], [], name="F5")
    assert_same_as_reference(
        GradedModule(ring5, [("u", 0)], [["x^2 + 2*x*e"]]), 4, -6)


def test_same_as_reference_largest_admissible_prime():
    p = 2 ** 31 - 1
    ring = GradedRing(p, [("x", -1), ("y", -1), ("z", -1)], [])
    mod = GradedModule(ring, [("u", 0), ("v", 0)],
                       [["x", f"{p - 1}*y"], ["y + 12345*z", "z"],
                        [f"x*y + {p - 2}*z^2", "0"]])
    assert_same_as_reference(mod, 3, -5)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([2, 3]),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
                min_size=1, max_size=4))
def test_same_as_reference_random_monomial_modules(p, monos):
    ring = GradedRing(p, [("x", -1), ("y", -1), ("z", -1)], [])
    monos = [m for m in monos if any(m)] or [(1, 0, 0)]
    assert_same_as_reference(cyclic(ring, monos), 3, -5)


# rings of the property test: a polynomial ring, a quotient ring and a
# graded-commutative ring with an odd generator
PROPERTY_RINGS = {
    "F3[x,y]": GradedRing(3, [("x", -1), ("y", -1)], []),
    "F2[x,y]/(x^2*y, y^3)": GradedRing(2, [("x", -1), ("y", -1)],
                                       ["x^2*y", "y^3"]),
    "F3[a odd, y]": GradedRing(3, [("a", -1, True), ("y", -1)], []),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(PROPERTY_RINGS)),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(1, 2)), max_size=2),
       st.integers(-1, 1))
def test_same_as_a_reference_below_the_lowest_degree(name, monos, mixed, degree):
    # a cyclic monomial module, and a module on two generators whose
    # relation rows mix them (x^i*y^j, c*x^j*y^i): the resolution equals
    # the reference walk taken below its lowest degree
    ring = PROPERTY_RINGS[name]
    x, y = (g.name for g in ring.generators)
    monos = [m for m in monos if any(m)] or [(1, 1)]
    assert_same_as_reference(cyclic(ring, monos, degree), 3)
    rows = [[f"{x}^{i}*{y}^{j}", f"{c}*{x}^{j}*{y}^{i}"]
            for i, j, c in mixed if i + j]
    two = GradedModule(ring, [("u", degree), ("v", degree)],
                       rows + [[monomial_text((x, y), monos[0]), "0"]])
    assert_same_as_reference(two, 3)


# properties -----------------------------------------------------------------


def assert_exact_minimal_complex(mod, res, w):
    for d in res.diffs:
        for p in d.values():
            # minimality: no entry has a unit (degree-0) term
            assert all(any(m) for m in p)
    for t in w.t_range():
        mats = [res.realize_diff(i, t) for i in range(len(res.diffs))]
        dims = [s.dim_in_degree(t) for s in res.stages]
        for a, b in zip(mats, mats[1:]):
            assert not (a @ b).entries
        # H_0 = M and exactness at every stage below the last
        assert dims[0] - (rank(mats[0]) if mats else 0) == mod.dim_in_degree(t)
        for i in range(1, len(mats)):
            assert rank(mats[i - 1]) + rank(mats[i]) == dims[i]


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([2, 3, 5]),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=3),
       st.integers(-1, 0))
def test_resolution_exact_and_minimal(p, monos, degree):
    ring = GradedRing(p, [("x", -1), ("y", -2)], [])
    monos = [m for m in monos if any(m)] or [(1, 1)]
    mod = cyclic(ring, monos, degree)
    res = minimal_free_resolution(mod, 3)
    assert_exact_minimal_complex(mod, res, Window(-8, 0))


def test_resolution_over_quotient_exact_and_minimal():
    ring = GradedRing(2, [("x", -1), ("y", -1)], [])
    q = ring.quotient([ring.parse("x^2"), ring.parse("y^3")])
    w = Window(-7, 0)
    for mod in (GradedModule.residue_field(q), cyclic(q, [(1, 1)])):
        assert_exact_minimal_complex(mod, minimal_free_resolution(mod, 4), w)


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 4), st.sampled_from([2, 3, 7]))
def test_koszul_betti_numbers(n, p):
    ring = GradedRing(p, [(f"x{i}", -1) for i in range(n)], [])
    res = minimal_free_resolution(GradedModule.residue_field(ring), n + 1)
    for i, stage in enumerate(res.stages):
        assert stage.gen_degrees == [-i] * math.comb(n, i)


def test_koszul_differential_entries_are_variables():
    ring = GradedRing(2, [(f"x{i}", -1) for i in range(3)], [])
    res = minimal_free_resolution(GradedModule.residue_field(ring), 3)
    for d in res.diffs:
        for p in d.values():
            assert len(p) == 1 and sum(next(iter(p))) == 1


def test_resolution_that_ends_early_pads_with_zero_stages():
    # a free module is its own resolution, and k over F3[x] stops after one
    # step; the stages after the first zero stage stay zero up to `length`
    ring = GradedRing(2, [("x", -1), ("y", -1)], [])
    res = minimal_free_resolution(
        GradedModule.free_module(ring, [0, -1], name="F"), 4)
    assert [f.gen_degrees for f in res.stages] == [[0, -1], [], [], [], []]
    assert res.diffs == [{}, {}, {}, {}]
    line = GradedRing(3, [("x", -1)], [])
    res = minimal_free_resolution(GradedModule.residue_field(line), 4)
    assert [f.gen_degrees for f in res.stages] == [[0], [-1], [], [], []]
    assert res.diffs == [{(0, 0): line.parse("x")}, {}, {}, {}]
