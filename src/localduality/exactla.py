"""Exact sparse linear algebra over prime fields.

Every degreewise computation in the package bottoms out here.  Matrices are
stored sparsely (dict keyed by (row, col)).  Elimination is a Gauss-Jordan
on dict rows built from those entries, giving the unique reduced row echelon
form; kernels, quotient projections and basis extensions are read off that
elimination as sparse matrices or dict rows.  Scalars are Python ints, so
no floating point and no overflow anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

# The supported characteristics: the word-size primes of FFLAS-FFPACK.  The
# bound also keeps a characteristic too large for trial division from
# reaching the primality test.
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
            f"characteristic {p} is too large: the supported primes are p < 2^31")
    if not _is_prime(p):
        raise ContractViolation(f"characteristic {p} is not prime")


class Field:
    """Arithmetic context GF(p) for a prime p < 2^31.

    Scalars are ints (reduced residues).
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
        return int(x) % self.characteristic

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.characteristic

    def neg(self, a):
        return (-a) % self.characteristic

    def inv(self, a):
        if a % self.characteristic == 0:
            raise ZeroDivisionError
        return pow(a, self.characteristic - 2, self.characteristic)


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
    #
    # The results below are built from reduced, in-range entries, so they are
    # wrapped without a second validation; zeros from cancellation are dropped.
    # Matrices are immutable, so an operand may be returned as the result.

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix._trusted(self.field, self.cols, self.rows,
                                     {(j, i): v for (i, j), v in self.entries.items()})

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

    def hstack(self, other: "SparseMatrix") -> "SparseMatrix":
        if other.rows != self.rows:
            raise ContractViolation("dimension mismatch in hstack")
        ent = dict(self.entries)
        for (i, j), v in other.entries.items():
            ent[(i, j + self.cols)] = v
        return SparseMatrix(self.field, self.rows, self.cols + other.cols, ent)


# elimination ---------------------------------------------------------------


def _dict_rows(m: SparseMatrix) -> Dict[int, Dict[int, int]]:
    """The nonzero rows of m as {row: {column: value}}."""
    rows: Dict[int, Dict[int, int]] = {}
    for (i, j), v in m.entries.items():
        row = rows.get(i)
        if row is None:
            rows[i] = {j: v}
        else:
            row[j] = v
    return rows


def _take(row: Dict[int, int], tails: Dict[int, Dict[int, int]],
          holders: Dict[int, set], p: int) -> Optional[int]:
    """One Gauss-Jordan step on dict rows; returns the new pivot column, or
    None when row lies in the span of the pivot rows.

    tails maps each pivot column to its pivot row's entries right of the
    leading 1, and holders maps each non-pivot column to the pivot columns
    whose rows hold it.  The pivot rows are kept reduced, zero at every
    other pivot column, so row (consumed) is reduced by one pass over the
    pivot columns it holds.  Its leftmost entry is then scaled to 1 and
    cleared from the pivot rows holding that column.
    """
    for c in [c for c in row if c in tails]:
        f = row.pop(c)
        for j, v in tails[c].items():
            w = (row.get(j, 0) - f * v) % p
            if w:
                row[j] = w
            else:
                del row[j]
    if not row:
        return None
    lead = min(row)
    inv = row.pop(lead)
    if inv != 1:
        inv = pow(inv, p - 2, p)
        for j in row:
            row[j] = row[j] * inv % p
    for c in holders.pop(lead, ()):
        prow = tails[c]
        f = prow.pop(lead)
        for j, v in row.items():
            w = (prow.get(j, 0) - f * v) % p
            if not w:
                del prow[j]
                holders[j].discard(c)
            else:
                if j not in prow:
                    holders.setdefault(j, set()).add(c)
                prow[j] = w
    tails[lead] = row
    for j in row:
        holders.setdefault(j, set()).add(lead)
    return lead


def _rref_rows(m: SparseMatrix) -> Dict[int, Dict[int, int]]:
    """Gauss-Jordan on dict rows, taken in index order: {pivot column: the
    pivot row's entries right of its leading 1}, in reduced echelon form."""
    p = m.field.characteristic
    rows = _dict_rows(m)
    tails: Dict[int, Dict[int, int]] = {}
    holders: Dict[int, set] = {}
    for i in sorted(rows):
        _take(rows[i], tails, holders, p)
    return tails


def rref(m: SparseMatrix) -> Tuple[SparseMatrix, List[int]]:
    """Reduced row echelon form and pivot columns (deterministic)."""
    tails = _rref_rows(m)
    pivots = sorted(tails)
    entries: Dict[Tuple[int, int], int] = {}
    for r, c in enumerate(pivots):
        entries[(r, c)] = 1
        tail = tails[c]
        for j in sorted(tail):
            entries[(r, j)] = tail[j]
    return SparseMatrix._trusted(m.field, m.rows, m.cols, entries), pivots


def rank(m: SparseMatrix) -> int:
    """Exact rank over the field."""
    return len(_rref_rows(m))


def kernel_rows(m: SparseMatrix) -> Tuple[SparseMatrix, List[int]]:
    """(K, free): a kernel basis of m as the rows of K, and the non-pivot
    columns of rref(m).  Row j of K has 1 at free[j], 0 at the other free
    columns and minus column free[j] of the pivot rows at the pivot
    columns."""
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    pos = {c: j for j, c in enumerate(free)}
    p = m.field.characteristic
    ent = {(j, c): 1 for j, c in enumerate(free)}
    for (i, c), v in red.entries.items():
        j = pos.get(c)
        if j is not None:
            ent[(j, pivots[i])] = p - v
    return SparseMatrix._trusted(m.field, len(free), m.cols, ent), free


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
    for (i, j), v in red.entries.items():
        if j == m.cols:
            x[pivots[i]] = v
    return x


def quotient_projection(span: SparseMatrix) -> Tuple[SparseMatrix, List[int]]:
    """Projection data for V / rowspace(span), V = field^cols.

    Returns (P, free_cols): free_cols index the chosen complement basis
    (non-pivot coordinates) and P maps V coordinates to quotient coordinates,
    i.e. P has shape (len(free_cols), cols) and P restricted to the
    complement basis is the identity.  In the quotient e_pc = -sum_c v * e_c
    over the entries v of pivot row pc, so P is the kernel matrix of span.
    """
    return kernel_rows(span)


def extend_basis(span: SparseMatrix, candidates: SparseMatrix) -> List[Dict[int, int]]:
    """The candidates that enlarge rowspace(span), reduced, as {column: value}
    rows.

    The rows of candidates must be linearly independent and span a space
    containing rowspace(span).  Candidate i is taken when it is not in W_i =
    rowspace(span) + span(candidates before i); its row is its reduction
    modulo W_i as taken, the unique vector of candidate + W_i vanishing on
    the pivot columns of W_i, scaled to leading coefficient 1.  Exactly
    candidates.rows - rank(span) rows come out.
    """
    p = span.field.characteristic
    red, pivots = rref(span)
    want = candidates.rows - len(pivots)
    if want < 0:
        raise ContractViolation("candidates do not span rowspace(span)")
    out: List[Dict[int, int]] = []
    if not want:
        return out
    # the Gauss-Jordan state of rref(span), continued by the candidates
    tails = {c: {} for c in pivots}
    holders: Dict[int, set] = {}
    for (i, j), v in red.entries.items():
        c = pivots[i]
        if j != c:
            tails[c][j] = v
            holders.setdefault(j, set()).add(c)
    rows = _dict_rows(candidates)
    for i in sorted(rows):
        lead = _take(rows[i], tails, holders, p)
        if lead is not None:
            out.append({lead: 1, **tails[lead]})
    if len(out) != want:
        raise ContractViolation("candidates are not a basis of a space "
                                "containing rowspace(span)")
    return out
