"""Exact sparse linear algebra over prime fields.

Every degreewise computation in the package bottoms out here.  Matrices are
stored sparsely (dict keyed by (row, col)); elimination runs on a dense
numpy int64 array mod p.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

# Residues are multiplied in int64, so p^2 must stay below 2^63; the bound
# 2^31 (the word-size primes of FFLAS-FFPACK) leaves room for the sums.
MAX_CHARACTERISTIC = 2 ** 31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class ContractViolation(ValueError):
    """Raised when an operation's precondition is violated."""


def _check_characteristic(p: int) -> None:
    if p >= MAX_CHARACTERISTIC:
        raise ContractViolation(
            f"characteristic {p} is too large: exact int64 arithmetic needs p < 2^31")
    if not _is_prime(p):
        raise ContractViolation(f"characteristic {p} is not prime")


@dataclass(frozen=True)
class FieldScalar:
    """Canonical scalar: a residue in [0, p) for a prime p."""

    characteristic: int
    value: object

    def __post_init__(self):
        p = self.characteristic
        _check_characteristic(p)
        if not isinstance(self.value, int) or not 0 <= self.value < p:
            raise ContractViolation("residue not reduced to [0, p)")


class Field:
    """Arithmetic context GF(p) for a prime p < 2^31.

    Raw scalars are ints (reduced residues); FieldScalar is the validated
    boundary type.
    """

    def __init__(self, characteristic: int):
        _check_characteristic(characteristic)
        self.characteristic = characteristic

    def __repr__(self):
        return f"GF({self.characteristic})"

    def __eq__(self, other):
        return isinstance(other, Field) and other.characteristic == self.characteristic

    def __hash__(self):
        return hash(("Field", self.characteristic))

    # raw-scalar arithmetic -------------------------------------------------

    def normalize(self, x):
        if isinstance(x, FieldScalar):
            if x.characteristic != self.characteristic:
                raise ContractViolation("scalar from wrong field")
            x = x.value
        return int(x) % self.characteristic

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.characteristic

    def sub(self, a, b):
        return (a - b) % self.characteristic

    def mul(self, a, b):
        return (a * b) % self.characteristic

    def neg(self, a):
        return (-a) % self.characteristic

    def inv(self, a):
        if a % self.characteristic == 0:
            raise ZeroDivisionError
        return pow(a, self.characteristic - 2, self.characteristic)

    def scalar(self, x) -> FieldScalar:
        return FieldScalar(self.characteristic, self.normalize(x))


@lru_cache(maxsize=None)
def GF(p: int) -> Field:
    return Field(p)


class SparseMatrix:
    """Immutable sparse matrix over a Field.  Zero entries are never stored."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int,
                 entries: Optional[Dict[Tuple[int, int], object]] = None):
        if rows < 0 or cols < 0:
            raise ContractViolation("negative dimensions")
        self.field = field
        self.rows = rows
        self.cols = cols
        clean: Dict[Tuple[int, int], object] = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ContractViolation(f"index {(i, j)} out of range")
            v = field.normalize(v)
            if v != 0:
                clean[(i, j)] = v
        self.entries = clean

    # construction helpers --------------------------------------------------

    @staticmethod
    def identity(field: Field, n: int) -> "SparseMatrix":
        one = field.one()
        return SparseMatrix._trusted(field, n, n, {(i, i): one for i in range(n)})

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "SparseMatrix":
        return SparseMatrix(field, rows, cols)

    @classmethod
    def _trusted(cls, field: Field, rows: int, cols: int,
                 entries: Dict[Tuple[int, int], int]) -> "SparseMatrix":
        """Wrap entries the engine built itself: in range, reduced, nonzero."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    @classmethod
    def _from_array(cls, field: Field, a: np.ndarray) -> "SparseMatrix":
        """Trusted constructor from an int64 array reduced mod p."""
        r, c = np.nonzero(a)
        entries = dict(zip(zip(r.tolist(), c.tolist()), a[r, c].tolist()))
        return cls._trusted(field, a.shape[0], a.shape[1], entries)

    @staticmethod
    def from_rows(field: Field, row_list: Iterable[Iterable[object]],
                  cols: Optional[int] = None) -> "SparseMatrix":
        rows_ = [list(r) for r in row_list]
        n = len(rows_)
        m = cols if cols is not None else (len(rows_[0]) if rows_ else 0)
        ent = {}
        for i, r in enumerate(rows_):
            for j, v in enumerate(r):
                ent[(i, j)] = v
        return SparseMatrix(field, n, m, ent)

    def to_dense(self) -> List[List[object]]:
        d = [[self.field.zero()] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            d[i][j] = v
        return d

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and other.field == self.field
                and other.rows == self.rows and other.cols == self.cols
                and other.entries == self.entries)

    def __repr__(self):
        return f"SparseMatrix({self.field}, {self.rows}x{self.cols}, nnz={len(self.entries)})"

    # arithmetic ------------------------------------------------------------

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.field, self.cols, self.rows,
                            {(j, i): v for (i, j), v in self.entries.items()})

    # The results below are built from reduced, in-range entries, so they are
    # wrapped without a second validation; zeros from cancellation are dropped.
    # Matrices are immutable, so an operand may be returned as the result.

    def scale(self, c) -> "SparseMatrix":
        c = self.field.normalize(c)
        if c == 1:
            return self
        p = self.field.characteristic
        ent = {k: v * c % p for k, v in self.entries.items()} if c else {}
        return SparseMatrix._trusted(self.field, self.rows, self.cols, ent)

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        if (other.rows, other.cols) != (self.rows, self.cols):
            raise ContractViolation("dimension mismatch in add")
        if not other.entries:
            return self
        if not self.entries:
            return other
        p = self.field.characteristic
        ent = dict(self.entries)
        for k, v in other.entries.items():
            ent[k] = (ent.get(k, 0) + v) % p
        return SparseMatrix._trusted(self.field, self.rows, self.cols,
                                     {k: v for k, v in ent.items() if v})

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ContractViolation("dimension mismatch in matmul")
        if not self.entries or not other.entries:
            return SparseMatrix._trusted(self.field, self.rows, other.cols, {})
        p = self.field.characteristic
        by_row: Dict[int, Dict[int, int]] = {}
        for (i, k), v in other.entries.items():
            by_row.setdefault(i, {})[k] = v
        ent: Dict[Tuple[int, int], int] = {}
        for (i, j), a in self.entries.items():
            row = by_row.get(j)
            if not row:
                continue
            for k, b in row.items():
                key = (i, k)
                ent[key] = (ent.get(key, 0) + a * b) % p
        return SparseMatrix._trusted(self.field, self.rows, other.cols,
                                     {k: v for k, v in ent.items() if v})

    __matmul__ = matmul

    def apply(self, vec: List[object]) -> List[object]:
        if len(vec) != self.cols:
            raise ContractViolation("dimension mismatch in apply")
        f = self.field
        vec = [f.normalize(x) for x in vec]
        out = [f.zero()] * self.rows
        for (i, j), v in self.entries.items():
            out[i] = f.add(out[i], f.mul(v, vec[j]))
        return out

    def hstack(self, other: "SparseMatrix") -> "SparseMatrix":
        if other.rows != self.rows:
            raise ContractViolation("dimension mismatch in hstack")
        ent = dict(self.entries)
        for (i, j), v in other.entries.items():
            ent[(i, j + self.cols)] = v
        return SparseMatrix(self.field, self.rows, self.cols + other.cols, ent)

    def submatrix(self, row_idx: List[int], col_idx: List[int]) -> "SparseMatrix":
        rmap = {r: i for i, r in enumerate(row_idx)}
        cmap = {c: j for j, c in enumerate(col_idx)}
        ent = {}
        for (i, j), v in self.entries.items():
            if i in rmap and j in cmap:
                ent[(rmap[i], cmap[j])] = v
        return SparseMatrix(self.field, len(row_idx), len(col_idx), ent)


class _Echelon(SparseMatrix):
    """Output of rref: the reduced matrix, keeping the int64 array it came from."""

    __slots__ = ("array",)

    @classmethod
    def of(cls, field: Field, a: np.ndarray) -> "_Echelon":
        m = cls._from_array(field, a)
        m.array = a
        return m

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "_Echelon":
        m = cls._trusted(field, rows, cols, {})
        m.array = np.zeros((rows, cols), dtype=np.int64)
        return m


# elimination ---------------------------------------------------------------


def _to_numpy(m: SparseMatrix) -> np.ndarray:
    a = np.zeros((m.rows, m.cols), dtype=np.int64)
    for (i, j), v in m.entries.items():
        a[i, j] = v
    return a


def _rref_modp(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form mod p; returns (matrix, pivot column list)."""
    a = a % p
    nrows, ncols = a.shape
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col_all = a[:, c].copy()
        col_all[r] = 0
        mask = np.nonzero(col_all)[0]
        if mask.size:
            a[mask] = (a[mask] - np.outer(col_all[mask], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _matmul_modp(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for int64 arrays reduced mod p, in partial sums that fit int64."""
    step = (2 ** 63 - p) // (p - 1) ** 2
    if a.shape[1] <= step:
        return (a @ b) % p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, a.shape[1], step):
        out = (out + a[:, s:s + step] @ b[s:s + step]) % p
    return out


def rref(m: SparseMatrix) -> Tuple[SparseMatrix, List[int]]:
    """Reduced row echelon form and pivot columns (deterministic)."""
    if not m.entries:
        return _Echelon.zeros(m.field, m.rows, m.cols), []
    a, pivots = _rref_modp(_to_numpy(m), m.field.characteristic)
    return _Echelon.of(m.field, a), pivots


def rank(m: SparseMatrix) -> int:
    """Exact rank over the field."""
    if not m.entries:
        return 0
    return len(_rref_modp(_to_numpy(m), m.field.characteristic)[1])


def kernel_rows(m: SparseMatrix) -> Tuple[np.ndarray, List[int]]:
    """(K, free): a kernel basis of m as the rows of an int64 array, and the
    non-pivot columns of rref(m).  Row j of K has 1 at free[j], 0 at the other
    free columns and minus column free[j] of the pivot rows at the pivot
    columns."""
    red, pivots = rref(m)
    if not pivots:
        return np.eye(m.cols, dtype=np.int64), list(range(m.cols))
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    k = np.zeros((len(free), m.cols), dtype=np.int64)
    if free:
        k[range(len(free)), free] = 1
        k[:, pivots] = (-red.array[:len(pivots), free].T) % m.field.characteristic
    return k, free


def kernel_basis(m: SparseMatrix) -> List[List[int]]:
    """Basis of the right kernel, one vector per non-pivot column.

    Vectors are returned in increasing free-column order; always
    len == cols - rank(m).
    """
    return kernel_rows(m)[0].tolist()


def solve(m: SparseMatrix, b: List[object]) -> Optional[List[int]]:
    """Some x with m @ x = b, or None when the system is inconsistent."""
    f = m.field
    if len(b) != m.rows:
        raise ContractViolation("dimension mismatch in solve")
    b = [f.normalize(x) for x in b]
    aug = m.hstack(SparseMatrix(f, m.rows, 1, {(i, 0): v for i, v in enumerate(b)}))
    red, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [0] * m.cols
    for c, v in zip(pivots, red.array[:len(pivots), m.cols].tolist()):
        x[c] = v
    return x


def solve_matrix(m: SparseMatrix, b: SparseMatrix) -> Optional[SparseMatrix]:
    """Some X with m @ X = b, or None.  Solves all columns in one elimination."""
    if b.rows != m.rows:
        raise ContractViolation("dimension mismatch in solve_matrix")
    aug = m.hstack(b)
    red, pivots = rref(aug)
    if any(c >= m.cols for c in pivots):
        return None
    ent = {}
    for (i, j), v in red.entries.items():
        if j >= m.cols:
            # row i corresponds to pivot column pivots[i]
            ent[(pivots[i], j - m.cols)] = v
    return SparseMatrix._trusted(m.field, m.cols, b.cols, ent)


def quotient_projection(span: SparseMatrix) -> Tuple[SparseMatrix, List[int]]:
    """Projection data for V / rowspace(span), V = field^cols.

    Returns (P, free_cols): free_cols index the chosen complement basis
    (non-pivot coordinates) and P maps V coordinates to quotient coordinates,
    i.e. P has shape (len(free_cols), cols) and P restricted to the
    complement basis is the identity.  In the quotient e_pc = -sum_c v * e_c
    over the entries v of pivot row pc, so P is the kernel matrix of span.
    """
    k, free = kernel_rows(span)
    return SparseMatrix._from_array(span.field, k), free


def extend_basis(span: SparseMatrix, candidates: np.ndarray) -> np.ndarray:
    """The candidates that enlarge rowspace(span), reduced, one row each.

    candidates must be linearly independent rows, reduced mod p, whose span
    contains rowspace(span).  Candidate i is taken when it is not in W_i =
    rowspace(span) + span(candidates before i); its row is its reduction
    modulo W_i, the unique vector of candidate + W_i vanishing on the pivot
    columns of W_i, scaled to leading coefficient 1.  Exactly
    len(candidates) - rank(span) rows come out.
    """
    p = span.field.characteristic
    red, pivots = rref(span)
    want = len(candidates) - len(pivots)
    if want <= 0:
        if want < 0:
            raise ContractViolation("candidates do not span rowspace(span)")
        return np.zeros((0, span.cols), dtype=np.int64)
    v = candidates
    if pivots:
        coeff = v[:, pivots]
        used = np.flatnonzero(coeff.any(axis=0))
        if used.size:
            v = (v - _matmul_modp(coeff[:, used], red.array[used], p)) % p
    # the rows taken so far, kept fully reduced against each other
    basis = np.zeros((0, span.cols), dtype=np.int64)
    leads: List[int] = []
    out = []
    for row in v[v.any(axis=1)]:
        if leads:
            c = row[leads]
            if c.any():
                row = (row - _matmul_modp(c[None, :], basis, p)[0]) % p
        nz = np.flatnonzero(row)
        if not nz.size:
            continue
        lead = int(nz[0])
        row = row * pow(int(row[lead]), p - 2, p) % p
        out.append(row)
        col = basis[:, lead]
        if col.any():
            basis = (basis - np.outer(col, row)) % p
        basis = np.vstack([basis, row])
        leads.append(lead)
    if len(out) != want:
        raise ContractViolation("candidates are not a basis of a space "
                                "containing rowspace(span)")
    return np.array(out, dtype=np.int64).reshape(want, span.cols)
