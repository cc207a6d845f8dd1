"""The exact isomorphism tests against a reference.

`DegreewiseModel`, `matlis_dual`, `models_isomorphic` and `shift_model` are
the degreewise module engine the duality checks compared modules with before
the exact tests replaced it: a Hilbert comparison, an intertwiner solve on
the comparison window and up to eight random combinations of intertwiners.
`duality.is_shifted_hull` and `duality.is_free_rank_one` must return the
same verdict on drawn cyclic modules over five rings, in both shapes and
with both outcomes, except that they answer None (undetermined) when the
socle or generator degree lies outside the comparison window.  Beyond the
reference, a hull must have its socle line: a Hilbert function taken on a
window without degree 0 lacks it, and the zero module is no hull.
"""

import random

from hypothesis import example, given, settings, strategies as st

from localduality.complexes import module_complex, shift
from localduality.duality import (brown_comenetz, is_free_rank_one,
                                  is_shifted_hull)
from localduality.exactla import SparseMatrix, rank
from localduality.graded import (GradedModule, GradedRing, Window,
                                 dual_hilbert_function)
from conftest import kernel_basis


# reference -------------------------------------------------------------------


class DegreewiseModel:
    """Degreewise dims plus generator-action matrices."""

    def __init__(self, ring, dims, actions):
        self.ring = ring
        self.dims = {t: d for t, d in dims.items() if d}
        self.actions = actions  # (gen index, t) -> matrix deg t -> t + deg_g

    def dim(self, t):
        return self.dims.get(t, 0)

    def action(self, gi, t):
        key = (gi, t)
        if key in self.actions:
            return self.actions[key]
        g = self.ring.generators[gi]
        return SparseMatrix(self.ring.field, self.dim(t + g.degree), self.dim(t))

    @classmethod
    def of_module(cls, mod, w):
        dims = {t: mod.dim_in_degree(t) for t in w.t_range()}
        actions = {}
        for gi, g in enumerate(mod.ring.generators):
            for t in w.t_range():
                if w.t_lo <= t + g.degree <= w.t_hi and dims.get(t):
                    actions[(gi, t)] = mod.generator_action(gi, t)
        return cls(mod.ring, dims, actions)


def matlis_dual(mod, w):
    """Degreewise k-linear dual of a module with transposed actions."""
    inner = Window(-w.t_hi, -w.t_lo, w.s_lo, w.s_hi)
    model = DegreewiseModel.of_module(mod, inner)
    ring = model.ring
    dims = {-t: d for t, d in model.dims.items() if -w.t_hi <= -t <= w.t_hi}
    dims = {t: d for t, d in dims.items() if w.t_lo <= t <= w.t_hi}
    actions = {}
    for gi, g in enumerate(ring.generators):
        for t in range(w.t_lo, w.t_hi + 1):
            src = -t - g.degree
            if (gi, src) in model.actions:
                actions[(gi, t)] = model.actions[(gi, src)].transpose()
    return DegreewiseModel(ring, dims, actions)


def shift_model(model, k):
    """The shifted model has degree t piece equal to the input's t - k."""
    dims = {t + k: d for t, d in model.dims.items()}
    actions = {(gi, t + k): mat for (gi, t), mat in model.actions.items()}
    return DegreewiseModel(model.ring, dims, actions)


def models_isomorphic(a, b, w, seed=0, tries=8):
    """Hilbert equality + window intertwiner solve + random trials."""
    ts = list(w.t_range())
    for t in ts:
        if a.dim(t) != b.dim(t):
            return False
    ring = a.ring
    f = ring.field
    var_index = {}
    nvars = 0
    for t in ts:
        d = a.dim(t)
        for i in range(d):
            for j in range(d):
                var_index[(t, i, j)] = nvars
                nvars += 1
    if nvars == 0:
        return True
    rows = []
    for gi, g in enumerate(ring.generators):
        for t in ts:
            t2 = t + g.degree
            if t2 < w.t_lo or t2 > w.t_hi:
                continue
            if a.dim(t) == 0 and b.dim(t) == 0:
                continue
            A = a.action(gi, t)
            B = b.action(gi, t)
            d2, d1 = a.dim(t2), a.dim(t)
            for r in range(d2):
                for c in range(d1):
                    row = {}
                    for k in range(d2):
                        v = A.entries.get((k, c), 0)
                        if v:
                            idx = var_index[(t2, r, k)]
                            row[idx] = (row.get(idx, 0) + v) % ring.characteristic
                    for k in range(d1):
                        v = B.entries.get((r, k), 0)
                        if v:
                            idx = var_index[(t, k, c)]
                            row[idx] = (row.get(idx, 0) - v) % ring.characteristic
                    if row:
                        rows.append(row)
    ent = {}
    for i, row in enumerate(rows):
        for j, v in row.items():
            if v:
                ent[(i, j)] = v
    sol_space = kernel_basis(SparseMatrix(f, len(rows), nvars, ent))
    if not sol_space:
        return False
    rng = random.Random(seed)
    p = ring.characteristic
    for _ in range(tries):
        coeffs = [rng.randrange(p) for _ in sol_space]
        if not any(coeffs):
            coeffs[rng.randrange(len(coeffs))] = 1 + rng.randrange(p - 1)
        phi = [0] * nvars
        for c, vec in zip(coeffs, sol_space):
            if c:
                phi = [(x + c * y) % p for x, y in zip(phi, vec)]
        ok = True
        for t in ts:
            d = a.dim(t)
            if d == 0:
                continue
            mat = SparseMatrix(f, d, d,
                               {(i, j): phi[var_index[(t, i, j)]]
                                for i in range(d) for j in range(d)})
            if rank(mat) != d:
                ok = False
                break
        if ok:
            return True
    return False


# the rings and the drawn modules ------------------------------------------------


def _plane(p, y_weight=1):
    return GradedRing(p, [("x", -1), ("y", -y_weight)], [])


RINGS = {
    "F2[x,y]": lambda: _plane(2),
    "F2[x,y:-2]": lambda: _plane(2, 2),
    "F3[x,y]": lambda: _plane(3),
    "F3[a odd,y]": lambda: GradedRing(3, [("a", -1, True), ("y", -1)], []),
    "F2[x,y]/(y^2)": lambda: GradedRing(2, [("x", -1), ("y", -1)], ["y^2"]),
}
W = Window(-4, 4)
INNER = Window(-W.t_hi, -W.t_lo)


@st.composite
def cyclic_relations(draw, ring):
    """Up to two homogeneous relations of degree -1 .. -3, each of one
    parity, with drawn coefficients."""
    p = ring.characteristic
    rels = []
    for _ in range(draw(st.integers(0, 2))):
        monos = ring.basis_in_degree(draw(st.integers(-3, -1)))
        parity = draw(st.integers(0, 1))
        poly = {}
        for m in monos:
            if sum(e for e, o in zip(m, ring.parity) if o) % 2 == parity:
                c = draw(st.integers(0, p - 1))
                if c:
                    poly[m] = c
        if poly:
            rels.append([poly])
    return rels


def _cyclic(ring, rels, degree):
    return GradedModule(ring, [("u", degree)], rels)


def _compare(ring, rels, shape, dual, g, target, lo, hi):
    """(old, new) verdicts for the cyclic module R/(rels) in degree g, or
    its Matlis dual moved up by g, against the shape's target on [lo, hi]."""
    cw = Window(lo, hi)
    if dual:
        mod = _cyclic(ring, rels, 0)
        old_m = shift_model(matlis_dual(mod, W), g)
        new_m = shift(brown_comenetz(module_complex(mod, INNER), W), 0, g)
    else:
        mod = _cyclic(ring, rels, g)
        old_m = DegreewiseModel.of_module(mod, W)
        new_m = module_complex(mod, W)
    if shape == "hull":
        R = GradedModule.free_module(ring, [0])
        old = models_isomorphic(old_m, shift_model(matlis_dual(R, W), target),
                                cw)
        new = is_shifted_hull(new_m, dual_hilbert_function(R, W), target, cw)
    else:
        free_target = GradedModule.free_module(ring, [target])
        old = models_isomorphic(old_m,
                                DegreewiseModel.of_module(free_target, W), cw)
        new = is_free_rank_one(new_m, target, cw)
    return old, new


@st.composite
def comparisons(draw):
    name = draw(st.sampled_from(sorted(RINGS)))
    ring = RINGS[name]()
    rels = draw(cyclic_relations(ring))
    shape = draw(st.sampled_from(["hull", "free"]))
    dual = draw(st.booleans())
    g = draw(st.integers(-2, 2))
    # the target sits at the module's own degree half of the time
    target = draw(st.sampled_from([g, draw(st.integers(-2, 2))]))
    lo = draw(st.integers(W.t_lo, W.t_hi))
    hi = draw(st.integers(lo, W.t_hi))
    return name, rels, shape, dual, g, target, lo, hi


# properties ----------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(comparisons())
# the dual of the ring is the hull; with y of degree -2, R/(x^3) is free on
# [-2, 0]; over F2[x,y]/(y^2), R/(x*y) is not free on [-2, 2]
@example(("F3[a odd,y]", [], "hull", True, 1, 1, -1, 3))
@example(("F2[x,y:-2]", [["x^3"]], "free", False, 0, 0, -2, 0))
@example(("F2[x,y]/(y^2)", [["x*y"]], "free", False, 1, 1, -2, 2))
def test_exact_tests_match_the_intertwiner_search(case):
    name, rels, shape, dual, g, target, lo, hi = case
    ring = RINGS[name]()
    rels = [[ring.parse(r) if isinstance(r, str) else r for r in row]
            for row in rels]
    old, new = _compare(ring, rels, shape, dual, g, target, lo, hi)
    if new is None:
        assert not lo <= target <= hi
    else:
        assert new == old, (name, rels, shape, dual, g, target, lo, hi)


def test_hand_picked_cases_have_both_outcomes_in_both_shapes():
    # F2[x,y]/(x^2, y^2) in degree 2 is the hull on [0, 1], F2[x,y]/(x^2, x*y)
    # with the same Hilbert function is not
    F = RINGS["F2[x,y]"]()
    x2, y2, xy = F.parse("x^2"), F.parse("y^2"), F.parse("x*y")
    cases = {
        ("hull", True): (F, [[x2], [y2]], "hull", False, 2, 0, 0, 1),
        ("hull", False): (F, [[x2], [xy]], "hull", False, 2, 0, 0, 1),
        ("free", True): (F, [], "free", False, 1, 1, -3, 3),
        ("free", False): (F, [[xy]], "free", False, 1, 1, -3, 3),
    }
    for (shape, want), args in cases.items():
        old, new = _compare(*args)
        assert old is want and new is want, (shape, want, old, new)


def test_socle_outside_the_window_is_undetermined():
    # the hull of F2[x,y] with its socle in degree 2, compared on [-2, 1]:
    # the Hilbert functions agree there, but nothing pins the socle
    ring = RINGS["F2[x,y]"]()
    R = GradedModule.free_module(ring, [0])
    hull = dual_hilbert_function(R, W)
    m = shift(brown_comenetz(module_complex(R, INNER), W), 0, 2)
    assert is_shifted_hull(m, hull, 2, Window(-2, 1)) is None
    assert is_shifted_hull(m, hull, 2, Window(-2, 2)) is True
    f = module_complex(GradedModule.free_module(ring, [2]), W)
    assert is_free_rank_one(f, 2, Window(-2, 1)) is None
    assert is_free_rank_one(f, 2, Window(-2, 2)) is True


def test_a_hull_needs_its_socle_line():
    # a hull Hilbert function taken on a window without degree 0 misses the
    # socle; the zero module agrees with it but is no hull
    ring = RINGS["F2[x,y]"]()
    hull = dual_hilbert_function(GradedModule.free_module(ring, [0]),
                                 Window(-4, -1))
    zero = module_complex(GradedModule(ring, [("u", 0)], [["1"]]), W)
    assert hull == {} and not zero.dims
    assert is_shifted_hull(zero, hull, 0, Window(-2, 2)) is False
