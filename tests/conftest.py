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


# rings with an odd generator in odd characteristic (a, b and e odd):
# name -> (characteristic, generators, relations)
ODD_RINGS = {
    "F3[a',b]": (3, [("a", -1, True), ("b", -2)], []),
    "F3[a']": (3, [("a", -1, True)], []),
    "F3[a',b']": (3, [("a", -1, True), ("b", -1, True)], []),
    "F3[a',b']/(ab)": (3, [("a", -1, True), ("b", -1, True)], ["a*b"]),
    "F3[a',b]/(ab)": (3, [("a", -1, True), ("b", -2)], ["a*b"]),
    "F3[a',b]/(a)": (3, [("a", -1, True), ("b", -2)], ["a"]),
    "F3[a',b',x]/(ab)": (3, [("a", -1, True), ("b", -1, True), ("x", -1)],
                         ["a*b"]),
    "F3[a',b',x]/(ab+x^2)": (3, [("a", -1, True), ("b", -1, True),
                                 ("x", -1)], ["a*b + x^2"]),
    "F5[x,e',y]/(x^2e)": (5, [("x", -1), ("e", -1, True), ("y", -1)],
                          ["x^2*e"]),
    "F5[x,e']/(x^2)": (5, [("x", -1), ("e", -1, True)], ["x^2"]),
}


def odd_ring(name: str) -> GradedRing:
    char, gens, rels = ODD_RINGS[name]
    return GradedRing(char, gens, rels, name=name)


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
