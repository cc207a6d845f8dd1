import pytest

from localduality.exactla import ContractViolation, SparseMatrix, rref
from localduality.graded import GradedModule, GradedRing, HomIdeal, Window


@pytest.fixture
def poly_line():
    return GradedRing(2, [("x", -1)], [], name="F2[x]")


@pytest.fixture
def poly_plane():
    return GradedRing(2, [("x", -1), ("y", -1)], [], name="F2[x,y]")


@pytest.fixture
def hypersurface(poly_plane):
    return poly_plane.quotient([poly_plane.parse("y^2")],
                               name="F2[x,y]/(y^2)")


@pytest.fixture
def window():
    return Window(-8, 8)


def max_ideal(ring: GradedRing, name: str = "m") -> HomIdeal:
    return HomIdeal(ring, [ring.gen_poly(i) for i in range(ring.n)],
                    is_prime_asserted=True, name=name)


def free(ring: GradedRing, degrees=(0,), name="F") -> GradedModule:
    return GradedModule.free_module(ring, list(degrees), name=name)


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


def solve_matrix(m, b):
    """Some X with m @ X = b, or None: every column solved in one elimination
    of [m | b], the way the package solved before it read cycle coordinates
    off kernel bases."""
    if b.rows != m.rows:
        raise ContractViolation("dimension mismatch in solve_matrix")
    red, pivots = rref(m.hstack(b))
    if any(c >= m.cols for c in pivots):
        return None
    ent = {}
    for (i, j), v in red.entries.items():
        if j >= m.cols:
            # row i corresponds to pivot column pivots[i]
            ent[(pivots[i], j - m.cols)] = v
    return SparseMatrix._trusted(m.field, m.cols, b.cols, ent)
