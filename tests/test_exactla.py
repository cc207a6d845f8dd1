"""Exact linear algebra over prime fields: oracle cases and properties."""

import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from localduality.exactla import (GF, ContractViolation, SparseMatrix,
                                  extend_basis, kernel_basis,
                                  quotient_projection, rank, rref, solve,
                                  solve_matrix)


def dense(field, rows):
    ent = {(i, j): v for i, row in enumerate(rows)
           for j, v in enumerate(row) if v}
    cols = len(rows[0]) if rows else 0
    return SparseMatrix(field, len(rows), cols, ent)


def matrices(p=2, max_dim=5):
    @st.composite
    def build(draw):
        f = GF(p)
        r = draw(st.integers(0, max_dim))
        c = draw(st.integers(0, max_dim))
        rows = [[draw(st.integers(0, p - 1)) for _ in range(c)]
                for _ in range(r)]
        return dense(f, rows) if r else SparseMatrix(f, 0, c)
    return build()


def test_rank_oracle():
    f = GF(2)
    assert rank(dense(f, [[1, 0], [0, 1]])) == 2
    assert rank(dense(f, [[1, 1], [1, 1]])) == 1
    assert rank(SparseMatrix(f, 3, 3)) == 0


def test_rank_oracle_odd_char():
    f = GF(5)
    assert rank(dense(f, [[2, 4], [1, 2]])) == 1
    assert rank(dense(f, [[2, 4], [1, 3]])) == 2


def test_solve_oracle():
    f = GF(3)
    m = dense(f, [[1, 2], [0, 1]])
    x = solve(m, [0, 2])
    assert x is not None
    assert (m @ dense(f, [[x[0]], [x[1]]])).to_dense() == [[0], [2]]
    assert solve(dense(f, [[1, 1], [1, 1]]), [1, 0]) is None


@settings(max_examples=60, deadline=None)
@given(matrices(p=2), st.randoms(use_true_random=False))
def test_kernel_annihilates(m, _rng):
    for v in kernel_basis(m):
        col = SparseMatrix(m.field, m.cols, 1,
                           {(i, 0): x for i, x in enumerate(v) if x})
        assert not (m @ col).entries


@settings(max_examples=60, deadline=None)
@given(matrices(p=3))
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@settings(max_examples=40, deadline=None)
@given(matrices(p=2))
def test_rref_row_space_preserved(m):
    red, pivots = rref(m)
    assert rank(red) == rank(m) == len(pivots)


@settings(max_examples=40, deadline=None)
@given(matrices(p=5))
def test_quotient_projection_kills_span(span):
    P, free_cols = quotient_projection(span)
    assert P.rows == span.cols - rank(span)
    # P vanishes on the row space of span
    prod = P @ span.transpose()
    assert not prod.entries
    assert len(free_cols) == P.rows


@settings(max_examples=40, deadline=None)
@given(matrices(p=2))
def test_solve_matrix_consistency(m):
    # solving against m's own column space always succeeds
    x = solve_matrix(m, m)
    assert x is not None
    assert (m @ x).to_dense() == m.to_dense()


def test_gf_validates_primality():
    with pytest.raises(Exception):
        GF(6)


# the word-size bound on the characteristic ----------------------------------

LARGEST_PRIME_BELOW_BOUND = 2147483647    # 2^31 - 1
SMALLEST_PRIME_ABOVE_BOUND = 2147483659


def python_rref(rows, ncols, p):
    """Reduced row echelon form mod p with Python integers (no overflow)."""
    rows = [[x % p for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


@st.composite
def large_prime_matrices(draw, p=LARGEST_PRIME_BELOW_BOUND):
    r = draw(st.integers(1, 6))
    c = draw(st.integers(1, 6))
    residues = st.one_of(st.integers(0, p - 1), st.sampled_from([0, 1, p - 1, p - 2]))
    rows = [[draw(residues) for _ in range(c)] for _ in range(r)]
    # force dependent rows now and then, so ranks below full occur
    if r > 1 and draw(st.booleans()):
        k = draw(st.integers(0, p - 1))
        rows[-1] = [(k * x) % p for x in rows[0]]
    return rows, c


@settings(max_examples=80, deadline=None)
@given(large_prime_matrices())
def test_largest_admissible_prime_is_exact(data):
    rows, c = data
    p = LARGEST_PRIME_BELOW_BOUND
    m = dense(GF(p), rows)
    want_rows, want_pivots = python_rref(rows, c, p)
    red, pivots = rref(m)
    assert pivots == want_pivots
    assert red.to_dense() == want_rows
    assert rank(m) == len(want_pivots)
    ker = kernel_basis(m)
    assert len(ker) == c - len(want_pivots)
    for v in ker:
        assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in rows)


def test_characteristic_bound():
    assert GF(LARGEST_PRIME_BELOW_BOUND).characteristic == LARGEST_PRIME_BELOW_BOUND
    with pytest.raises(ContractViolation, match="2\\^31"):
        GF(SMALLEST_PRIME_ABOVE_BOUND)


def test_huge_characteristic_rejected_at_once():
    # trial division of a number this size would not finish
    start = time.perf_counter()
    with pytest.raises(ContractViolation, match="2\\^31"):
        GF(10 ** 40 + 1)
    assert time.perf_counter() - start < 1.0


# greedy basis extension -----------------------------------------------------


def python_extend_basis(span_rows, candidates, ncols, p):
    """Greedy extension with Python integers, one candidate at a time."""
    rows, pivots = python_rref(span_rows, ncols, p)
    rows, pivots = rows[:len(pivots)], list(pivots)
    out = []
    for v in candidates:
        v = list(v)
        for row, pc in sorted(zip(rows, pivots), key=lambda rp: rp[1]):
            if v[pc]:
                c = v[pc]
                v = [(a - c * b) % p for a, b in zip(v, row)]
        if any(v):
            inv = pow(next(x for x in v if x), p - 2, p)
            v = [x * inv % p for x in v]
            out.append(v)
            rows.append(v)
            pivots.append(next(i for i, x in enumerate(v) if x))
    return out


@st.composite
def extension_problems(draw):
    p = draw(st.sampled_from([2, 3, LARGEST_PRIME_BELOW_BOUND]))
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, n))
    residues = st.one_of(st.integers(0, p - 1), st.sampled_from([0, 0, 1, p - 1]))
    cands = [[draw(residues) for _ in range(n)] for _ in range(k)]
    # the span: combinations of a few candidates
    span = []
    for _ in range(draw(st.integers(0, 4))):
        coeffs = [draw(residues) if draw(st.booleans()) else 0 for _ in range(k)]
        span.append([sum(c * x for c, x in zip(coeffs, col)) % p
                     for col in zip(*cands)])
    return p, n, cands, span


@settings(max_examples=150, deadline=None)
@given(extension_problems())
def test_extend_basis_matches_one_at_a_time_reduction(problem):
    p, n, cands, span = problem
    assume(len(python_rref(cands, n, p)[1]) == len(cands))
    f = GF(p)
    span_m = dense(f, span) if span else SparseMatrix(f, 0, n)
    got = extend_basis(span_m, np.array(cands, dtype=np.int64))
    assert got.tolist() == python_extend_basis(span, cands, n, p)


# trusted arithmetic ------------------------------------------------------------
#
# matmul, add, scale and identity wrap their results without validation; each
# must equal the same operation with raw integer sums rebuilt through the
# validating constructor, which reduces every entry and drops zeros.

ARITHMETIC_PRIMES = [2, 3, 5, LARGEST_PRIME_BELOW_BOUND]


def reference_matmul(a, b):
    ent = {}
    for (i, j), v in a.entries.items():
        for (jj, k), w in b.entries.items():
            if j == jj:
                ent[(i, k)] = ent.get((i, k), 0) + v * w
    return SparseMatrix(a.field, a.rows, b.cols, ent)


def reference_add(a, b):
    ent = dict(a.entries)
    for k, v in b.entries.items():
        ent[k] = ent.get(k, 0) + v
    return SparseMatrix(a.field, a.rows, a.cols, ent)


def reference_scale(a, c):
    return SparseMatrix(a.field, a.rows, a.cols,
                        {k: v * c for k, v in a.entries.items()})


def assert_trusted_equal(got, want):
    assert got == want
    assert all(0 < v < got.field.characteristic and 0 <= i < got.rows
               and 0 <= j < got.cols for (i, j), v in got.entries.items())


@st.composite
def sparse_matrices(draw, p, rows, cols):
    """Entries drawn sparse, often from {1, p - 1} so sums cancel."""
    if not rows or not cols or draw(st.integers(0, 5)) == 0:
        return SparseMatrix(GF(p), rows, cols)
    values = st.one_of(st.sampled_from([1, p - 1]), st.integers(1, p - 1))
    ent = draw(st.dictionaries(st.tuples(st.integers(0, rows - 1),
                                         st.integers(0, cols - 1)),
                               values, max_size=rows * cols))
    return SparseMatrix(GF(p), rows, cols, ent)


@st.composite
def operands(draw, matmul):
    p = draw(st.sampled_from(ARITHMETIC_PRIMES))
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    a = draw(sparse_matrices(p, r, k))
    b = draw(sparse_matrices(p, k, c) if matmul else sparse_matrices(p, r, k))
    return a, b


@settings(max_examples=200, deadline=None)
@given(operands(matmul=True))
def test_trusted_matmul_matches_validated(ab):
    a, b = ab
    assert_trusted_equal(a @ b, reference_matmul(a, b))


@settings(max_examples=200, deadline=None)
@given(operands(matmul=False), st.booleans())
def test_trusted_add_matches_validated(ab, negate):
    a, b = ab
    if negate:       # a + (-a) cancels everywhere
        b = reference_scale(a, -1)
    assert_trusted_equal(a.add(b), reference_add(a, b))
    assert_trusted_equal(b.add(a), reference_add(b, a))


@settings(max_examples=200, deadline=None)
@given(operands(matmul=False), st.data())
def test_trusted_scale_matches_validated(ab, data):
    a, _ = ab
    p = a.field.characteristic
    c = data.draw(st.one_of(st.sampled_from([0, 1, p - 1, -1, p, p + 1]),
                            st.integers(-2 * p, 2 * p)))
    assert_trusted_equal(a.scale(c), reference_scale(a, c))


@pytest.mark.parametrize("p", ARITHMETIC_PRIMES)
def test_trusted_arithmetic_edge_cases(p):
    f = GF(p)
    for n in range(4):
        assert_trusted_equal(SparseMatrix.identity(f, n),
                             SparseMatrix(f, n, n, {(i, i): 1 for i in range(n)}))
    # a product whose every entry cancels
    a = SparseMatrix(f, 2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 2 % p, (1, 1): 2 % p})
    b = SparseMatrix(f, 2, 3, {(0, 0): 3 % p, (1, 0): p - 3 % p,
                               (0, 2): 1, (1, 2): p - 1})
    assert (a @ b).entries == {}
    assert (a @ b).rows == 2 and (a @ b).cols == 3
    # empty operands keep their shapes
    z = SparseMatrix(f, 3, 2)
    assert_trusted_equal(z @ b, SparseMatrix(f, 3, 3))
    assert_trusted_equal(a @ SparseMatrix(f, 2, 0), SparseMatrix(f, 2, 0))
    assert_trusted_equal(a.add(SparseMatrix(f, 2, 2)), a)
    assert_trusted_equal(SparseMatrix(f, 2, 2).add(a), a)
    assert_trusted_equal(a.scale(0), SparseMatrix(f, 2, 2))
    assert_trusted_equal(a.scale(1), a)
    assert_trusted_equal(a.scale(p - 1).add(a), SparseMatrix(f, 2, 2))
    with pytest.raises(ContractViolation):
        z.add(a)
    with pytest.raises(ContractViolation):
        z @ z
