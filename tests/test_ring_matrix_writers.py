"""The two writers of matrices of ring elements agree.

A matrix of ring elements becomes a k-matrix in one degree in two layers:
`graded.FreeModule.multiples` writes the ring multiples of free-module
elements (and so `Resolution.realize_diff`, through `poly_matrix_realize`),
and `free_tensor` writes the free-side blocks of F (x) X from X's element
actions.  Realized against the ring itself, the resolution's free complex
must have the graded layer's differential in every degree: the blocks of a
bidegree follow the generators, and R's basis in each block is the free
module's.
"""

import pytest

from localduality.cli import Environment, corpus, parse
from localduality.complexes import resolution_complex
from localduality.exactla import ContractViolation
from localduality.graded import (FreeModule, GradedModule, GradedRing, Window,
                                 minimal_free_resolution, poly_matrix_realize)


def _corpus_modules():
    for entry in corpus():
        spec, _ = parse(entry.text)
        ring = Environment(spec).ring("R")
        x0, last = ring.gen_poly(0), ring.gen_poly(ring.n - 1)
        d0 = ring.poly_degree(x0)
        for mod in (GradedModule.residue_field(ring),
                    GradedModule(ring, [("u", 0)], [[x0]], name="R/(x0)"),
                    GradedModule(ring, [("u", 0), ("v", d0)],
                                 [[ring.poly_mul(x0, x0), x0], [last, {}]],
                                 name="two")):
            yield pytest.param(mod, id=f"{entry.name}-{mod.name}")


@pytest.mark.parametrize("mod", list(_corpus_modules()))
def test_resolution_differential_is_the_free_tensor_differential(mod):
    w = Window(-8, 4)
    res = minimal_free_resolution(mod, 3)
    C = resolution_complex(res).realize(None, w)
    nonzero = 0
    for i in range(len(res.diffs)):
        for t in w.t_range():
            d = res.realize_diff(i, t)
            assert d == C.diff(i + 1, t), (i, t)
            nonzero += bool(d.entries)
    assert nonzero


def test_multiples_are_ordered_by_element_then_monomial():
    ring = GradedRing(2, [("x", -1), ("y", -1)], ["x*y"])
    free = FreeModule(ring, [0, -1])
    x, y = ring.gen_poly(0), ring.gen_poly(1)
    # x*e0 of degree -1 and y*e1 of degree -2, multiplied into degree -2:
    # mu*x*e0 for each mu of degree -1 (y*x = 0 is a zero row), then y*e1
    m = free.multiples([[x, {}], [{}, y]], [-1, -2], -2)
    pos = {bm: i for i, bm in enumerate(free.basis_in_degree(-2))}
    mus = ring.basis_in_degree(-1)
    want = {}
    for r, mu in enumerate(mus):
        for mono in ring.times_monomial(mu, x):
            want[(r, pos[(0, mono)])] = 1
    want[(len(mus), pos[(1, (0, 1))])] = 1
    assert (m.rows, m.cols) == (len(mus) + 1, len(pos))
    assert m.entries == want
    assert len({r for r, _ in want}) == len(mus)    # one zero row


def test_a_product_outside_the_target_basis_is_refused():
    # an entry of the wrong degree puts its products outside the degree-t
    # basis of the target: refused, not dropped
    ring = GradedRing(2, [("x", -1), ("y", -1)], [])
    one = FreeModule(ring, [0])
    with pytest.raises(ContractViolation, match="outside basis degree"):
        poly_matrix_realize(ring, one, FreeModule(ring, [-1]),
                            {(0, 0): ring.gen_poly(0)}, -1)
