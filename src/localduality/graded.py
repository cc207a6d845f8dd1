"""Graded rings, modules and ideals with windowed exact computations.

A ring is a connected graded-commutative k-algebra presented by generators in
strictly negative (homotopy) degrees and homogeneous relations.  One
degree-bounded Buchberger completion under weighted degrevlex, _Submodule,
serves every Groebner basis: a ring's relation ideal is the rank-one
submodule its relations span over the free ring on its generators, and a
module's relations and a resolution's Schreyer frames are submodules of free
modules over the ring.  All module-level operations are realized degreewise
as matrices over the prime field and delegated to exactla.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from operator import add, le, mul, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .exactla import (ContractViolation, Field, GF, SparseMatrix, extend_basis,
                      kernel_rows, rref)

Mono = Tuple[int, ...]          # exponent vector over the ring's generators
Poly = Dict[Mono, int]          # monomial -> nonzero coefficient (raw residue)

# S-pairs one Buchberger completion may take before it is refused as a runaway
PAIR_LIMIT = 20000


@dataclass(frozen=True)
class Window:
    """Internal-degree range [t_lo, t_hi] and homological range [s_lo, s_hi]."""

    t_lo: int
    t_hi: int
    s_lo: int = 0
    s_hi: int = 0

    def __post_init__(self):
        if self.t_lo > self.t_hi or self.s_lo > self.s_hi:
            raise ContractViolation("empty window")

    @property
    def span(self) -> int:
        return self.t_hi - self.t_lo

    def t_range(self):
        return range(self.t_lo, self.t_hi + 1)


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int      # strictly negative homotopy degree
    odd: bool = False


class GradedRing:
    """Connected graded-commutative algebra over GF(p), p prime."""

    def __init__(self, characteristic: int, generators: Sequence[Tuple],
                 relations: Sequence = (), name: str = "R"):
        self.field: Field = GF(characteristic)
        if characteristic == 0:
            raise ContractViolation("ground field must be a prime field")
        self.characteristic = characteristic
        gens = []
        for g in generators:
            if isinstance(g, Generator):
                gens.append(g)
            else:
                name_, deg, *rest = g
                odd = bool(rest[0]) if rest else False
                gens.append(Generator(name_, deg, odd))
        for g in gens:
            if g.degree >= 0:
                raise ContractViolation(
                    f"connectedness violated: generator {g.name} has degree {g.degree}")
        if characteristic == 2:
            # at char 2 parity is invisible; treat everything as even
            gens = [Generator(g.name, g.degree, False) for g in gens]
        self.generators: List[Generator] = gens
        self.name = name
        self.gen_index = {g.name: i for i, g in enumerate(gens)}
        self.weights = [-g.degree for g in gens]
        self.parity = [1 if g.odd else 0 for g in gens]
        self._odd = any(self.parity)
        self.n = len(gens)

        rels: List[Poly] = []
        for r in relations:
            p = self.parse(r) if isinstance(r, str) else dict(r)
            if p:
                self._check_homogeneous(p)
                rels.append(p)
        # R = S/I for the free ring S on the same generators, whose only
        # relations are the odd squares; I is the rank-one S-submodule the
        # other relations span, completed as far as a caller asks.  A free
        # ring is its own S and has no I.
        self.ambient: GradedRing = self
        self._ideal: Optional[_Submodule] = None
        if rels:
            S = self.ambient = GradedRing(characteristic, gens, [],
                                          name=f"S({name})")
            self._ideal = _Submodule(S, [0], [[S.normal_form(r)] for r in rels],
                                     f"the relations of ring {name}")
        # P: the polynomial ring on the even generators, over which S is free
        # on the odd square-free monomials; S itself without an odd generator
        self.polynomial: GradedRing = self.ambient
        if self._odd:
            self.polynomial = self.ambient.polynomial if rels else GradedRing(
                characteristic, [g for g in gens if not g.odd], [],
                name=f"P({name})")
        # the leading monomials of the Groebner basis so far and its
        # elements, append-only: the odd squares, which vanish in odd
        # characteristic (at 2 no generator is odd), then I's elements as
        # its completion finds them
        self._leads: List[Mono] = [tuple(2 if j == i else 0 for j in range(self.n))
                                   for i in range(self.n) if self.parity[i]]
        self._gb: List[Poly] = [{sq: 1} for sq in self._leads]
        self.relations: List[Poly] = rels + self._gb
        self._basis_cache: Dict[int, List[Mono]] = {}
        self._krull: Optional[int] = None

    # monomial layer --------------------------------------------------------

    def mono_degree(self, m: Mono) -> int:
        return -sum(map(mul, m, self.weights))

    def mono_weight(self, m: Mono) -> int:
        return sum(map(mul, m, self.weights))

    def order_key(self, m: Mono):
        # weighted degrevlex: higher key = larger monomial
        return (self.mono_weight(m), tuple(-e for e in reversed(m)))

    def mono_mul(self, a: Mono, b: Mono) -> Optional[Tuple[int, Mono]]:
        """Product with Koszul sign; None when an odd generator squares."""
        if not self._odd:
            return 1, tuple(map(add, a, b))
        sign = 0
        if self.characteristic != 2:
            for i in range(self.n):
                if self.parity[i] and b[i]:
                    # move b's i-th odd factor past a's odd factors of larger index
                    sign += b[i] * sum(a[j] * self.parity[j] for j in range(i + 1, self.n))
        prod = tuple(x + y for x, y in zip(a, b))
        for i in range(self.n):
            if self.parity[i] and prod[i] > 1:
                return None
        return (-1) ** (sign % 2), prod

    def mono_divides(self, a: Mono, b: Mono) -> bool:
        return all(map(le, a, b))

    # polynomial layer ------------------------------------------------------

    def poly_add(self, a: Poly, b: Poly) -> Poly:
        out = dict(a)
        p = self.characteristic
        for m, c in b.items():
            v = (out.get(m, 0) + c) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return out

    def poly_scale(self, a: Poly, c: int) -> Poly:
        c %= self.characteristic
        if c == 0:
            return {}
        return {m: (v * c) % self.characteristic for m, v in a.items()}

    def poly_mul(self, a: Poly, b: Poly) -> Poly:
        out: Poly = {}
        p = self.characteristic
        for ma, ca in a.items():
            for mb, cb in b.items():
                r = self.mono_mul(ma, mb)
                if r is None:
                    continue
                sgn, m = r
                v = (out.get(m, 0) + sgn * ca * cb) % p
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return out

    def one(self) -> Poly:
        return {(0,) * self.n: 1}

    def gen_poly(self, i: int) -> Poly:
        m = tuple(1 if j == i else 0 for j in range(self.n))
        return {m: 1}

    def poly_degree(self, p: Poly) -> Optional[int]:
        for m in p:
            return self.mono_degree(m)
        return None

    def _check_homogeneous(self, p: Poly):
        degs = {self.mono_degree(m) for m in p}
        if len(degs) > 1:
            raise ContractViolation(f"non-homogeneous element: degrees {sorted(degs)}")

    def leading(self, p: Poly) -> Tuple[Mono, int]:
        m = max(p, key=self.order_key)
        return m, p[m]

    def poly_str(self, p: Poly) -> str:
        if not p:
            return "0"
        terms = []
        for m in sorted(p, key=self.order_key, reverse=True):
            c = p[m]
            factors = [] if c == 1 and any(m) else [str(c)]
            if c == 1 and not any(m):
                factors = ["1"]
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(self.generators[i].name)
                elif e > 1:
                    factors.append(f"{self.generators[i].name}^{e}")
            terms.append("*".join(factors))
        return "+".join(terms)

    # parsing ---------------------------------------------------------------

    _token_re = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9']*|\d+|\^|\*|\+|-)")

    def parse(self, text: str) -> Poly:
        """Parse an ASCII polynomial: terms joined by +/-, factors by *, powers by ^."""
        tokens = []
        pos = 0
        while pos < len(text):
            m = self._token_re.match(text, pos)
            if not m:
                if text[pos:].strip() == "":
                    break
                raise ContractViolation(f"cannot parse {text[pos:]!r}")
            tokens.append(m.group(1))
            pos = m.end()
        result: Poly = {}
        i = 0
        sign = 1
        if not tokens:
            return {}
        while i < len(tokens):
            # one term
            coeff = sign
            mono = self.one()
            while i < len(tokens) and tokens[i] not in ("+", "-"):
                tok = tokens[i]
                if tok == "*":
                    i += 1
                    continue
                if tok.isdigit():
                    coeff *= int(tok)
                    i += 1
                else:
                    name = tok
                    if name not in self.gen_index:
                        raise ContractViolation(f"unknown generator {name!r}")
                    exp = 1
                    i += 1
                    if i < len(tokens) and tokens[i] == "^":
                        exp = int(tokens[i + 1])
                        i += 2
                    gp = self.gen_poly(self.gen_index[name])
                    for _ in range(exp):
                        mono = self.poly_mul(mono, gp)
            term = self.poly_scale(mono, coeff)
            result = self.poly_add(result, term)
            if i < len(tokens):
                sign = 1 if tokens[i] == "+" else -1
                i += 1
        return result

    # normal forms ----------------------------------------------------------

    def complete(self, weight_bound: int) -> List[Poly]:
        """The ring's Groebner basis, complete for every monomial of weight
        <= weight_bound: I completed down to degree -weight_bound
        (_Submodule.complete), after the odd squares.  The bound math.inf
        completes it to a Groebner basis of the whole ideal."""
        ideal = self._ideal
        if ideal is not None:
            ideal.complete(-weight_bound)
            known = len(self._gb) - len(self.ambient._gb)
            self._gb.extend(f[0] for f in ideal.basis[known:])
            self._leads.extend(m for _, m, _ in ideal.leads[known:])
        return self._gb

    def normal_form(self, p) -> Poly:
        """Canonical representative of a homogeneous element modulo
        relations: times_monomial of the unit monomial and p, so a term with
        an odd square is dropped."""
        if isinstance(p, str):
            p = self.parse(p)
        self._check_homogeneous(p)
        return self.times_monomial((0,) * self.n, p)

    def times_monomial(self, mu: Mono, p: Poly) -> Poly:
        """normal_form(poly_mul({mu: 1}, p)) for a homogeneous p, summed from
        memoised normal forms of the product monomials: the product that
        normal forms, element actions, the Groebner bases of submodules and
        the spans of ring multiples are built from.

        The normal form modulo a Groebner basis is k-linear, so the normal
        form of mu*p is the sum of sign * c * NF(mono_mul(mu, m)) over the
        terms c*m of p (mu on the left, as poly_mul takes it, so the Koszul
        signs and the vanishing odd squares are the same).

        The ring's one memo is I's (_Submodule.normal_form), and it stores
        only reducible monomials.  A ring with relations is completed to the
        weight of mu*p first; a product monomial that no leading monomial
        divides is then its own normal form and is not stored, so a free
        ring stores nothing.  An entry stays valid when the completion goes
        further: I's later basis elements lie in lower degrees, so they
        neither divide a lighter monomial nor take part in its reduction.

        p is not checked for homogeneity: the caller checks it once, not
        once per product.
        """
        if not p:
            return {}
        ideal = self._ideal
        if ideal is None:
            memo, leads = {}, ()
        else:
            self.complete(self.mono_weight(mu) + self.mono_weight(next(iter(p))))
            memo, leads = ideal._nf_memo, self._leads
        divides = self.mono_divides
        char = self.characteristic
        out: Poly = {}
        for m, c in p.items():
            r = self.mono_mul(mu, m)
            if r is None:
                continue
            sgn, prod = r
            key = (0, prod)
            nf = memo.get(key)
            if nf is None:
                nf = (ideal.normal_form(key)
                      if any(divides(lm, prod) for lm in leads) else {key: 1})
            for (_, mm), cc in nf.items():
                v = (out.get(mm, 0) + sgn * c * cc) % char
                if v:
                    out[mm] = v
                else:
                    out.pop(mm, None)
        return out

    def basis_in_degree(self, t: int) -> List[Mono]:
        """Normal-form monomials of homotopy degree t, deterministic order."""
        if t > 0:
            return []
        if t in self._basis_cache:
            return self._basis_cache[t]
        self.complete(-t)
        out = self._basis_cache[t] = self.standard_monomials(-t, self._leads)
        return out

    def standard_monomials(self, weight: int, leads: Sequence[Mono]) -> List[Mono]:
        """The monomials of the given weight that no monomial of leads
        divides, in ascending order (odd squares excluded)."""
        # each leading monomial is filed under the last generator of its
        # support: once the exponents before it are assigned and it divides
        # them, it caps that generator's exponent below its own, so the
        # branch is cut there
        ending: List[List[Mono]] = [[] for _ in range(self.n)]
        for lm in leads:
            support = [i for i, e in enumerate(lm) if e]
            if not support:
                # a unit leaves no standard monomial; it is not filed,
                # since a ring without generators has no generator 0
                return []
            ending[support[-1]].append(lm)
        out: List[Mono] = []
        last = self.n - 1
        weights, parity = self.weights, self.parity

        def rec(i: int, remaining: int, acc: Mono):
            w = weights[i]
            top = 1 if parity[i] else remaining // w
            for lm in ending[i]:
                # map stops at the end of acc: lm divides the prefix so far
                if lm[i] <= top and all(map(le, lm, acc)):
                    top = lm[i] - 1
            if i == last:
                # only e = remaining / w lands on zero
                e, rest = divmod(remaining, w)
                if not rest and e <= top:
                    out.append(acc + (e,))
                return
            for e in range(min(top, remaining // w) + 1):
                rec(i + 1, remaining - e * w, acc + (e,))

        if self.n:
            rec(0, weight, ())
        elif weight == 0:
            out.append(())      # a ring without generators is k
        out.sort(key=self.order_key)
        return out

    def dim_in_degree(self, t: int) -> int:
        return len(self.basis_in_degree(t))

    # Krull dimension -------------------------------------------------------

    def even_projection_ring(self) -> "GradedRing":
        """Quotient by the odd (nilpotent) generators; same Krull dimension."""
        even_idx = [i for i in range(self.n) if not self.parity[i]]
        if len(even_idx) == self.n:
            return self
        gens = [self.generators[i] for i in even_idx]
        rels = []
        for r in self.relations:
            proj: Poly = {}
            for m, c in r.items():
                if any(m[i] for i in range(self.n) if self.parity[i]):
                    continue
                proj[tuple(m[i] for i in even_idx)] = c
            if proj:
                rels.append(proj)
        return GradedRing(self.characteristic, gens, rels, name=self.name + "_even")

    def krull_dim(self) -> int:
        if self._krull is not None:
            return self._krull
        ring = self.even_projection_ring()
        if ring is not self:
            self._krull = ring.krull_dim()
            return self._krull
        # a basis truncated at a weight can miss a leading monomial
        self.complete(math.inf)
        best = 0
        for r in range(self.n, -1, -1):
            found = False
            for subset in itertools.combinations(range(self.n), r):
                sset = set(subset)
                ok = True
                for lm in self._leads:
                    if all(lm[i] == 0 or i in sset for i in range(self.n)):
                        ok = False
                        break
                if ok:
                    found = True
                    break
            if found:
                best = r
                break
        self._krull = best
        return best

    def quotient(self, extra_relations: Sequence[Poly], name: str = "Q") -> "GradedRing":
        # relations ends with the odd squares, which the new ring adds itself
        own = self.relations[:len(self.relations) - sum(self.parity)]
        return GradedRing(self.characteristic,
                          [(g.name, g.degree, g.odd) for g in self.generators],
                          own + [dict(r) for r in extra_relations], name=name)

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.degree}" + ("'" if g.odd else "")
                         for g in self.generators)
        return f"GradedRing(F{self.characteristic}[{gens}], {len(self.relations)} relations)"


class HomIdeal:
    """Finitely generated homogeneous ideal with its cached quotient ring."""

    def __init__(self, ring: GradedRing, gens: Sequence, is_prime_asserted: bool = False,
                 name: str = "p"):
        self.ring = ring
        self.gens: List[Poly] = []
        for g in gens:
            p = ring.parse(g) if isinstance(g, str) else dict(g)
            ring._check_homogeneous(p)
            if p:
                self.gens.append(p)
        self.is_prime_asserted = is_prime_asserted
        self.name = name
        self._quotient: Optional[GradedRing] = None
        self._dim: Optional[int] = None

    @property
    def quotient_ring(self) -> GradedRing:
        """R/p, built once."""
        if self._quotient is None:
            self._quotient = self.ring.quotient(self.gens,
                                                name=f"{self.ring.name}/{self.name}")
        return self._quotient

    @property
    def dim_of_quotient(self) -> int:
        if self._dim is None:
            self._dim = self.quotient_ring.krull_dim()
        return self._dim

    def is_maximal(self) -> bool:
        return self.dim_of_quotient == 0 and all(
            any(m != (0,) * self.ring.n for m in g) for g in self.gens)

    def contains(self, u) -> bool:
        """Whether the homogeneous element u lies in the ideal."""
        return not self.quotient_ring.normal_form(u)

    def require_declared_prime(self):
        """Refuse an ideal not declared prime: kappa(p) needs a prime."""
        if not self.is_prime_asserted:
            raise ContractViolation(
                f"ideal {self.name} is not declared prime; kappa(p)-ranks "
                f"need a prime")

    def generic_rank(self, rows: Sequence[Sequence[Poly]]) -> int:
        """Rank over Frac(R/p) of a graded matrix of ring elements.

        Fraction-free elimination on normal forms in R/p: a nonzero entry of
        least weight is the pivot a, and every other row r with b in the
        pivot column becomes a*r - b*(pivot row).  Scaling a row by a nonzero
        element keeps the rank because R/p is a domain, and the rows stay
        homogeneous because the matrix is graded.  The ideal must be declared
        prime; an odd generator outside it, or two nonzero normal forms with
        a zero product, refute that and are refused with the witness.
        """
        ring = self.ring
        self.require_declared_prime()
        Q = self.quotient_ring
        for i, g in enumerate(ring.generators):
            if ring.parity[i] and not self.contains(ring.gen_poly(i)):
                raise ContractViolation(
                    f"ideal {self.name} is not prime: the odd generator "
                    f"{g.name} squares to zero but lies outside it")

        def times(a: Poly, b: Poly) -> Poly:
            if not a or not b:
                return {}
            ab = Q.normal_form(Q.poly_mul(a, b))
            if not ab:
                raise ContractViolation(
                    f"ideal {self.name} is not prime: "
                    f"({Q.poly_str(a)})*({Q.poly_str(b)}) lies in it, "
                    f"neither factor does")
            return ab

        rows = [[Q.normal_form(e) for e in row] for row in rows]
        rows = [row for row in rows if any(row)]
        rank = 0
        while rows:
            # the nonzero entry of least weight, the first in row order
            _, i, c = min((Q.mono_weight(next(iter(e))), i, c)
                          for i, row in enumerate(rows)
                          for c, e in enumerate(row) if e)
            pivot = rows.pop(i)
            a = pivot[c]
            rest = []
            for row in rows:
                b = row[c]
                if b:
                    row = [Q.poly_add(times(a, x), Q.poly_scale(times(b, y), -1))
                           for x, y in zip(row, pivot)]
                if any(row):
                    rest.append(row)
            rows = rest
            rank += 1
        return rank

    def __repr__(self):
        return f"HomIdeal({self.name}: {[self.ring.poly_str(g) for g in self.gens]})"


def maximal_ideal(ring: GradedRing) -> HomIdeal:
    """The homogeneous maximal ideal, generated by the ring's generators."""
    return HomIdeal(ring, [ring.gen_poly(i) for i in range(ring.n)],
                    is_prime_asserted=True, name="m")


# free modules over the ring -----------------------------------------------


class FreeModule:
    """Free graded module given by a list of generator degrees (with labels)."""

    def __init__(self, ring: GradedRing, gen_degrees: Sequence[int],
                 labels: Optional[Sequence[str]] = None):
        self.ring = ring
        self.gen_degrees = list(gen_degrees)
        self.labels = list(labels) if labels else [f"e{i}" for i in range(len(gen_degrees))]

    @property
    def rank(self) -> int:
        return len(self.gen_degrees)

    def basis_in_degree(self, t: int) -> List[Tuple[int, Mono]]:
        out = []
        for i, d in enumerate(self.gen_degrees):
            for m in self.ring.basis_in_degree(t - d):
                out.append((i, m))
        return out

    def dim_in_degree(self, t: int) -> int:
        return sum(self.ring.dim_in_degree(t - d) for d in self.gen_degrees)

    def coords(self, row: Sequence[Poly], t: int,
               basis: Optional[List[Tuple[int, Mono]]] = None) -> List[int]:
        """k-coordinates at degree t of an element given as polynomial entries."""
        basis = basis if basis is not None else self.basis_in_degree(t)
        pos = {bm: i for i, bm in enumerate(basis)}
        v = [0] * len(basis)
        for i, p in enumerate(row):
            if not p:
                continue
            nf = self.ring.normal_form(p)
            for m, c in nf.items():
                key = (i, m)
                if key in pos:
                    v[pos[key]] = c
                elif c:
                    raise ContractViolation("element has support outside basis degree")
        return v

    def multiples(self, rows: Sequence[Sequence[Poly]], degrees: Sequence[int],
                  t: int) -> SparseMatrix:
        """The ring multiples in degree t of elements of this free module.

        rows[k] is an element of degree degrees[k], one polynomial per
        generator.  Row r of the result holds the coordinates in
        basis_in_degree(t) of mu * rows[k], one row for each k and each
        standard monomial mu of degree t - degrees[k], in that order; a zero
        multiple is a zero row.  Raises ContractViolation when a product
        falls outside the degree-t basis.
        """
        ring = self.ring
        pos = {bm: i for i, bm in enumerate(self.basis_in_degree(t))}
        ent: Dict[Tuple[int, int], int] = {}
        r = 0
        for row, dg in zip(rows, degrees):
            terms = [(a, p) for a, p in enumerate(row) if p]
            for mu in ring.basis_in_degree(t - dg):
                # the products of distinct entries fill distinct columns
                for a, p in terms:
                    for m, c in ring.times_monomial(mu, p).items():
                        try:
                            ent[(r, pos[(a, m)])] = c
                        except KeyError:
                            raise ContractViolation(
                                "element has support outside basis degree") from None
                r += 1
        return SparseMatrix._trusted(ring.field, r, len(pos), ent)

    def element_from_coords(self, v: Dict[int, int], t: int) -> List[Poly]:
        """The element whose k-coordinates at degree t are the {column: value}
        row v, its terms in basis order."""
        basis = self.basis_in_degree(t)
        p = self.ring.characteristic
        row = [{} for _ in range(self.rank)]
        for c in sorted(v):
            x = v[c] % p
            if x:
                i, m = basis[c]
                row[i][m] = x
        return row


def poly_matrix_realize(ring: GradedRing, source: FreeModule, target: FreeModule,
                        entries: Dict[Tuple[int, int], Poly], t: int) -> SparseMatrix:
    """Realize a matrix of ring entries as a k-matrix in internal degree t.

    entries[(a, b)] maps source generator b to the coefficient of target
    generator a.  The realized matrix maps source coords at degree t to
    target coords at degree t: its columns are the multiples of the images
    of the source generators (FreeModule.multiples), in source basis order.
    """
    images = [[{} for _ in range(target.rank)] for _ in range(source.rank)]
    for (a, b), p in entries.items():
        if p:
            ring._check_homogeneous(p)
            images[b][a] = p
    return target.multiples(images, source.gen_degrees, t).transpose()


# finitely presented modules ------------------------------------------------


class _Submodule:
    """A Groebner basis of the submodule of a free module spanned by rows,
    complete in every degree down to the lowest one asked for.

    The order is position over term: the leading term of an element is the
    leading monomial of its first nonzero entry under the ring's weighted
    degrevlex, and entries are ring normal forms (Eisenbud, Commutative
    Algebra, ch. 15).  Over a quotient ring, and for the odd squares, the
    elements are paired with the ring's Groebner basis as well, completed
    as far as the degree asked for needs, but not where the leading
    monomials are coprime: the Koszul syzygy h*e_g - g*e_h stands for such
    a pair and maps to h*e_g = 0.  Coprime pairs of two elements count.
    Pairs are taken by degree, highest first (the normal strategy).  A pair
    of two one-term elements reduces nothing, since the multiples of its
    lcm cancel; every other pair reaches a reduction and counts against
    PAIR_LIMIT, so the guard counts work, not pairs.  An element lies in the
    degree of the pair that made it, and no leading term divides a monomial
    of a higher degree, so completing further down adds elements only in
    lower degrees and leaves the standard monomials and normal forms found
    so far, their positions and their memo, valid.  floor is the lowest
    degree of a pair taken, skipped or not.  A ring's relation ideal is one
    of these, of rank one over the free ring on its generators, whose basis
    is the odd squares.
    """

    def __init__(self, ring: GradedRing, degrees: Sequence[int],
                 rows: Sequence[Sequence[Poly]], what: str):
        self.ring = ring
        self.degrees = list(degrees)
        self.what = what                # named when the completion runs away
        self.basis: List[List[Poly]] = []
        self.leads: List[Tuple[int, Mono, int]] = []   # position, monomial, coefficient
        self._monomial: List[bool] = []     # whether an element has one term
        self.pairs: Dict[int, List[Tuple[int, int]]] = {}   # degree: (element, partner)
        self.floor: Optional[int] = None
        self._rows = [list(row) for row in rows]   # joined by the first completion
        self._bound = math.inf          # every pair of degree >= _bound is taken
        self._ring_paired = 0           # ring basis elements paired with every element
        self._taken = 0
        self._standard: Dict[int, List[Tuple[int, Mono]]] = {}
        self._positions: Dict[int, Dict[Tuple[int, Mono], int]] = {}
        self._nf_memo: Dict[Tuple[int, Mono], Dict[Tuple[int, Mono], int]] = {}

    def _times(self, mu: Mono, f: List[Poly]) -> List[Poly]:
        return [self.ring.times_monomial(mu, p) for p in f]

    def _combine(self, a: int, f: List[Poly], b: int, g: List[Poly]) -> List[Poly]:
        ring = self.ring
        return [ring.poly_add(ring.poly_scale(p, a), ring.poly_scale(q, b))
                for p, q in zip(f, g)]

    def _divisor(self, k: int, m: Mono) -> Optional[int]:
        """The first element whose leading term divides m at position k."""
        divides = self.ring.mono_divides
        return next((i for i, (kk, lm, _) in enumerate(self.leads)
                     if kk == k and divides(lm, m)), None)

    def _pair(self, i: int, j: int, k: int, mi: Mono, mj: Mono):
        lcm = tuple(map(max, mi, mj))
        degree = self.degrees[k] + self.ring.mono_degree(lcm)
        self.pairs.setdefault(degree, []).append((i, j))

    def _add(self, f: List[Poly]):
        """Top-reduce f by the basis; a remainder joins it with its pairs."""
        ring = self.ring
        while True:
            k = next((k for k, p in enumerate(f) if p), None)
            if k is None:
                return
            m, c = ring.leading(f[k])
            i = self._divisor(k, m)
            if i is None:
                break
            g = self._times(tuple(map(sub, m, self.leads[i][1])), self.basis[i])
            f = self._combine(1, f, -c * ring.field.inv(g[k][m]), g)
        i = len(self.basis)
        for j, (kk, mj, _) in enumerate(self.leads):
            if kk == k:
                self._pair(i, j, k, m, mj)
        for h, lm in enumerate(ring._leads[:self._ring_paired]):
            if any(map(min, lm, m)):
                self._pair(i, -1 - h, k, m, lm)
        self.basis.append(f)
        self.leads.append((k, m, c))
        self._monomial.append(sum(map(len, f)) == 1)

    def complete(self, t):
        """Take every S-pair of degree >= t; t = -math.inf completes the
        basis to a Groebner basis of the whole submodule."""
        if t >= self._bound:
            return
        ring = self.ring
        ring.complete(max(self.degrees, default=0) - t)
        # pair every element with the ring's basis elements found since
        # the last completion; elements joining from here on pair with them
        # in _add
        for h in range(self._ring_paired, len(ring._leads)):
            lm = ring._leads[h]
            for i, (k, m, _) in enumerate(self.leads):
                if any(map(min, lm, m)):
                    self._pair(i, -1 - h, k, m, lm)
        self._ring_paired = len(ring._leads)
        rows, self._rows = self._rows, []
        for row in rows:
            self._add(row)
        pairs = self.pairs
        while pairs:
            degree = max(pairs)
            if degree < t:
                break
            i, j = pairs[degree].pop()
            if not pairs[degree]:
                del pairs[degree]
            self.floor = degree if self.floor is None else min(self.floor, degree)
            if self._monomial[i] and (self._monomial[j] if j >= 0 else
                                      len(ring._gb[-1 - j]) == 1):
                continue        # the two multiples of the lcm cancel
            if self._taken >= PAIR_LIMIT:
                raise ContractViolation(
                    f"completion runaway: {self.what} exceeded {PAIR_LIMIT} "
                    f"S-pairs")
            self._taken += 1
            k, mi, ci = self.leads[i]
            mj = self.leads[j][1] if j >= 0 else ring._leads[-1 - j]
            lcm = tuple(map(max, mi, mj))
            qi = tuple(map(sub, lcm, mi))
            spol = self._times(qi, self.basis[i])
            if j >= 0:
                # cancel the leading terms, Koszul signs of the products included
                qj = tuple(map(sub, lcm, mj))
                spol = self._combine(ring.mono_mul(qj, mj)[0] * self.leads[j][2], spol,
                                     -ring.mono_mul(qi, mi)[0] * ci,
                                     self._times(qj, self.basis[j]))
            self._add(spol)
        self._bound = t

    def standard(self, t: int) -> List[Tuple[int, Mono]]:
        """The standard monomials (position, ring monomial) of degree t,
        no leading term dividing them: position first, then ascending ring
        order.  Completes the basis down to t."""
        out = self._standard.get(t)
        if out is None:
            self.complete(t)
            ring = self.ring
            out = []
            for k, d in enumerate(self.degrees):
                if d < t:
                    continue
                leads = [m for kk, m, _ in self.leads if kk == k]
                monos = (ring.standard_monomials(d - t, ring._leads + leads)
                         if leads else ring.basis_in_degree(t - d))
                out.extend((k, m) for m in monos)
            self._standard[t] = out
        return out

    def positions(self, t: int) -> Dict[Tuple[int, Mono], int]:
        """{standard monomial of degree t: its index in standard(t)},
        memoised: the rows an element action writes into."""
        out = self._positions.get(t)
        if out is None:
            out = self._positions[t] = {bm: r for r, bm in
                                        enumerate(self.standard(t))}
        return out

    def normal_form(self, key: Tuple[int, Mono]) -> Dict[Tuple[int, Mono], int]:
        """{standard monomial: coefficient} of the module monomial key =
        (position, ring standard monomial), memoised.  The basis must be
        complete down to key's degree (standard does that).  Terms are
        reduced largest first; a work list of one term needs no comparison.
        Element actions ask for it only off the staircase of a basis with an
        element of more than one term."""
        memo = self._nf_memo
        nf = memo.get(key)
        if nf is not None:
            return nf
        ring = self.ring
        char = ring.characteristic
        order = ring.order_key

        def put(d, km, v):
            v = (d.get(km, 0) + v) % char
            if v:
                d[km] = v
            else:
                d.pop(km, None)

        work = {key: 1}
        out: Dict[Tuple[int, Mono], int] = {}
        while work:
            top = next(iter(work)) if len(work) == 1 else \
                max(work, key=lambda km: (-km[0], order(km[1])))
            c = work.pop(top)
            known = memo.get(top)
            if known is not None:
                for km, v in known.items():
                    put(out, km, c * v)
                continue
            k, m = top
            i = self._divisor(k, m)
            if i is None:
                put(out, top, c)
                continue
            if self._monomial[i]:
                continue        # a multiple of a one-term element is the term
            g = self._times(tuple(map(sub, m, self.leads[i][1])), self.basis[i])
            factor = c * ring.field.inv(g[k][m])
            for kk, p in enumerate(g):
                for mm, cc in p.items():
                    if (kk, mm) != top:
                        put(work, (kk, mm), -factor * cc)
        memo[key] = out
        return out


class GradedModule:
    """Finitely presented graded module, realized degreewise on demand.

    Presentation: free module on `generators` modulo the row span of
    `relations` (each row: one Poly per generator).  The module is realized
    from a Groebner basis of the relation submodule (_Submodule), completed
    down to the lowest degree asked for: the basis of M_t is the standard
    monomials of degree t, generator first and then ascending ring order,
    and a ring element acts through the normal forms of its products.
    Where the relation span is spanned by monomials, the basis is the
    monomials outside it.
    """

    def __init__(self, ring: GradedRing, generators: Sequence[Tuple[str, int]],
                 relations: Sequence[Sequence] = (), name: str = "M"):
        self.ring = ring
        self.generators = [(n, d) for (n, d) in generators]
        self.free = FreeModule(ring, [d for _, d in generators], [n for n, _ in generators])
        self.name = name
        rel_rows: List[List[Poly]] = []
        row_degrees: List[int] = []
        for k, row in enumerate(relations, 1):
            prow = []
            for e in row:
                p = ring.parse(e) if isinstance(e, str) else dict(e)
                prow.append(ring.normal_form(p) if p else {})
            if any(prow):
                degs = {ring.poly_degree(p) + self.generators[j][1]
                        for j, p in enumerate(prow) if p}
                if len(degs) > 1:
                    raise ContractViolation("non-homogeneous relation row")
                self._check_parity(k, prow)
                rel_rows.append(prow)
                row_degrees.append(degs.pop())
        self.relations = rel_rows
        self.row_degrees = row_degrees      # the degree of each relation row
        self._gb = _Submodule(ring, self.free.gen_degrees, rel_rows,
                              f"the relations of module {name}")

    def _check_parity(self, k: int, row: List[Poly]):
        """Reject relation row k when its terms differ in parity.

        Module generators carry no parity, so every term of a relation must
        have the parity of its ring monomial alike.  With two odd generators
        in odd characteristic a mixed row makes multiplying by a*b and
        multiplying by a then by b disagree; with fewer, no product of ring
        elements carries a sign and any row is consistent.
        """
        ring = self.ring
        if sum(ring.parity) < 2:
            return
        terms = [(j, m, c) for j, p in enumerate(row) for m, c in p.items()]
        parities = [sum(e for e, odd in zip(m, ring.parity) if odd) % 2
                    for _, m, _ in terms]
        if len(set(parities)) < 2:
            return

        def name(term):
            j, m, c = term
            mono = ring.poly_str({m: c})
            gen = self.generators[j][0]
            return gen if mono == "1" else f"{mono}*{gen}"

        other = parities.index(1 - parities[0])
        raise ContractViolation(
            f"relation row {k} mixes parities: {name(terms[0])} is "
            f"{'odd' if parities[0] else 'even'} but {name(terms[other])} is "
            f"{'odd' if parities[other] else 'even'}")

    @classmethod
    def free_module(cls, ring: GradedRing, degrees: Sequence[int], name: str = "F"):
        return cls(ring, [(f"e{i}", d) for i, d in enumerate(degrees)], [], name)

    @classmethod
    def residue_field(cls, ring: GradedRing):
        gens = [("u", 0)]
        rels = [[ring.gen_poly(i)] for i in range(ring.n)]
        return cls(ring, gens, rels, "k")

    @property
    def top_degree(self) -> int:
        return max((d for _, d in self.generators), default=0)

    def pruned(self) -> "GradedModule":
        """The same module on a minimal set of generators.

        A relation row rho with a constant entry c at generator g (a unit,
        since R_0 = k) writes g through the others: every other row sigma
        becomes sigma - (sigma_g / c) * rho, and g and rho are dropped.
        Once no entry is constant every relation lies in m*F, so the
        generators are minimal.  A presentation without a constant entry is
        returned as it is."""
        ring = self.ring
        one = (0,) * ring.n
        gens, rows = list(self.generators), [list(r) for r in self.relations]

        def pivot():
            return next(((k, g) for k, row in enumerate(rows)
                         for g, p in enumerate(row) if one in p), None)

        while (hit := pivot()) is not None:
            k, g = hit
            rho = rows.pop(k)
            inv = ring.field.inv(rho[g][one])
            for row in rows:
                if row[g]:
                    f = ring.poly_scale(row[g], -inv)
                    row[:] = [ring.poly_add(p, ring.normal_form(
                        ring.poly_mul(f, q))) if q else p
                        for p, q in zip(row, rho)]
            for row in rows:
                del row[g]
            del gens[g]
        if len(gens) == len(self.generators):
            return self
        return GradedModule(ring, gens, rows, name=self.name)

    def relation_vectors(self, t: int) -> SparseMatrix:
        """The nonzero rows of the reduced echelon form of the relation
        submodule's degree-t piece, in free.basis_in_degree(t) coordinates.

        The piece is spanned by e_c - NF(e_c), one row for each monomial c
        that is not standard, so only those rows are eliminated (rows e_c
        alone, as for monomial relations, already are the echelon form); the
        echelon form is unique.  Where M_t = 0 it is the identity.
        """
        gb = self._gb
        standard = gb.positions(t)
        basis = self.free.basis_in_degree(t)
        pos = {bm: c for c, bm in enumerate(basis)}
        p = self.ring.characteristic
        ent = {}
        r = 0
        for c, bm in enumerate(basis):
            if bm not in standard:
                ent[(r, c)] = 1
                for key, v in gb.normal_form(bm).items():
                    ent[(r, pos[key])] = p - v
                r += 1
        rows = SparseMatrix._trusted(self.ring.field, r, len(basis), ent)
        return rows if len(ent) == r else rref(rows)[0]

    def dim_in_degree(self, t: int) -> int:
        return len(self._gb.standard(t))

    def basis_in_degree(self, t: int) -> List[str]:
        """Monomial labels of the chosen degree-t basis, deterministic order."""
        out = []
        for i, m in self._gb.standard(t):
            mono = self.ring.poly_str({m: 1})
            gen = self.generators[i][0]
            out.append(gen if mono == "1" else f"{mono}*{gen}")
        return out

    def element_action(self, p, t: int) -> SparseMatrix:
        """Matrix of multiplication by homogeneous element p: deg t -> t + |p|,
        read off the staircase of the module's Groebner basis.

        Column j is p times the j-th standard monomial, summed over the
        terms of p.  Each term's product with it is one mono_mul (the
        Koszul sign included, an odd square dropped) and one lookup in the
        target degree's positions (_Submodule.positions): a standard
        product is its own row.  A product off the staircase is first
        reduced by the ring when a leading monomial of the ring's ideal
        divides it (times_monomial, off the ring's normal-form memo); a
        term of that reduction off the staircase is zero when every basis
        element has one term, since a one-term element divides it, and is
        read off the memoised module normal form otherwise.
        """
        ring = self.ring
        if isinstance(p, str):
            p = ring.parse(p)
        p = ring.normal_form(p)
        if not p:
            return SparseMatrix(ring.field, 0, self.dim_in_degree(t))
        gb = self._gb
        source = gb.standard(t)
        t2 = t + ring.poly_degree(p)
        tpos = gb.positions(t2)
        monomial = all(gb._monomial)
        quotient = ring._ideal is not None
        mono_mul = ring.mono_mul
        char = ring.characteristic
        ent = {}
        for j, (i, m) in enumerate(source):
            col: Dict[int, int] = {}
            for mono, c in p.items():
                r = mono_mul(m, mono)
                if r is None:
                    continue
                sgn, prod = r
                row = tpos.get((i, prod))
                if row is not None:
                    col[row] = col.get(row, 0) + sgn * c
                    continue
                if quotient:
                    reduced = ring.times_monomial(m, {mono: c})
                elif monomial:
                    continue
                else:
                    reduced = {prod: sgn * c}
                for mm, cc in reduced.items():
                    row = tpos.get((i, mm))
                    if row is not None:
                        col[row] = col.get(row, 0) + cc
                    elif not monomial:
                        for key, v in gb.normal_form((i, mm)).items():
                            row = tpos[key]
                            col[row] = col.get(row, 0) + cc * v
            for row in sorted(col):
                v = col[row] % char
                if v:
                    ent[(row, j)] = v
        return SparseMatrix._trusted(ring.field, len(tpos), len(source), ent)

    def generator_action(self, gi: int, t: int) -> SparseMatrix:
        return self.element_action(self.ring.gen_poly(gi), t)

    def __repr__(self):
        return f"GradedModule({self.name}, {len(self.generators)} gens, {len(self.relations)} rels)"


def hilbert_function(mod: GradedModule, w: Window) -> Dict[int, int]:
    """dim_k of each internal degree in [t_lo, t_hi]."""
    return {t: mod.dim_in_degree(t) for t in w.t_range()}


def dual_hilbert_function(mod: GradedModule, w: Window) -> Dict[int, int]:
    """The nonzero dims of the Matlis dual Hom_k(mod, k) on w: its degree t
    piece is dual to the degree -t piece of mod."""
    dims = {t: mod.dim_in_degree(-t) for t in range(w.t_hi, w.t_lo - 1, -1)}
    return {t: d for t, d in dims.items() if d}


# resolutions ---------------------------------------------------------------


class Resolution:
    """Minimal free resolution F_len -> ... -> F_0 with ring-entry
    differentials, complete through stage len in every internal degree."""

    def __init__(self, ring: GradedRing, stages: List[FreeModule],
                 diffs: List[Dict[Tuple[int, int], Poly]]):
        self.ring = ring
        self.stages = stages
        self.diffs = diffs  # diffs[i]: stages[i+1] -> stages[i]

    def realize_diff(self, i: int, t: int) -> SparseMatrix:
        return poly_matrix_realize(self.ring, self.stages[i + 1], self.stages[i],
                                   self.diffs[i], t)


def _minimal_generators(ring: GradedRing, free: FreeModule, vectors_by_degree,
                        floor: int) -> Tuple[List[Tuple[int, List[Poly]]],
                                             Dict[int, SparseMatrix]]:
    """Pick minimal submodule generators from degreewise spans, from the top
    degree of `free` down to `floor`.

    vectors_by_degree(t) must return a SparseMatrix whose rows (coordinates in
    free.basis_in_degree(t)) form a basis of the submodule's degree-t piece.
    In each degree a spanning vector becomes a generator when it is not in
    the span of the ring multiples of the generators chosen so far; the
    generator is its canonical reduction modulo that span (see
    exactla.extend_basis), so the choice does not depend on how the span is
    stored.

    Returns ([(degree, poly-row)] for each chosen generator, maps): maps[t]
    realizes, for every visited degree t, the map from the free module on
    the generators to `free` (as poly_matrix_realize would), read off the
    multiples built on the way.
    """
    top = max(free.gen_degrees, default=0)
    chosen: List[Tuple[int, List[Poly]]] = []
    maps: Dict[int, SparseMatrix] = {}
    for t in range(top, floor - 1, -1):
        basis = free.basis_in_degree(t)
        span_vectors = vectors_by_degree(t) if basis else None
        if span_vectors is None or not span_vectors.rows:
            # the submodule vanishes in degree t, and with it every multiple
            r = sum(ring.dim_in_degree(t - dg) for dg, _ in chosen)
            maps[t] = SparseMatrix._trusted(ring.field, len(basis), r, {})
            continue
        # ring multiples of already chosen generators in degree t
        old = free.multiples([row for _, row in chosen],
                             [dg for dg, _ in chosen], t)
        ent = dict(old.entries)
        r = old.rows
        for vv in extend_basis(old, span_vectors):
            chosen.append((t, free.element_from_coords(vv, t)))
            for c, v in vv.items():
                ent[(r, c)] = v
            r += 1
        maps[t] = SparseMatrix._trusted(ring.field, len(basis), r,
                                        {(j, i): c for (i, j), c in ent.items()})
    return chosen, maps


def _frame_floor(ring: GradedRing, free: FreeModule,
                 rows: Sequence[Sequence[Poly]]) -> Optional[int]:
    """The lowest degree a minimal generator of the syzygies of `rows`
    (homogeneous elements of `free`) can lie in, None when they have none."""
    # Schreyer's frame (Schreyer 1980; Eisenbud, Commutative Algebra, Thm
    # 15.10): extend the rows to a Groebner basis G.  The syzygies of G are
    # generated by one per S-pair, in the degree of the pair's lcm, and they
    # map onto the syzygies of the rows, which G contains; so the lowest lcm
    # degree bounds them.  The pairs _Submodule leaves out stand for Koszul
    # syzygies that map to zero.
    gb = _Submodule(ring, free.gen_degrees, rows, "the Schreyer frame")
    gb.complete(-math.inf)
    return gb.floor


def minimal_free_resolution(mod: GradedModule, length: int) -> Resolution:
    """Free resolution of `mod` through stage `length`, right in every
    internal degree: no window cuts it.

    Stage 0 is mod's own generators, in their order, since callers index
    them (relative lifts each target generator's action along them); every
    later stage is minimal.  So the resolution is minimal when mod's
    presentation is, as `GradedModule.pruned` makes it."""
    # Stage s + 1 holds the minimal generators of the kernel of F_s -> F_{s-1}
    # (of the relation submodule for s = 0), chosen by _minimal_generators
    # from the top degree of F_s down to the lowest degree one can lie in:
    # the lowest relation row for s = 0, the floor of the Schreyer frame of
    # F_s's generators after that.  A frame without S-pairs ends it, and a
    # refusal on the way, such as a runaway completion, names its stage.
    if length < 0:
        raise ContractViolation("length must be >= 0")
    ring = mod.ring
    stages = [FreeModule(ring, [d for _, d in mod.generators],
                         [n for n, _ in mod.generators])]
    diffs: List[Dict[Tuple[int, int], Poly]] = []
    floor = min(mod.row_degrees, default=None)
    vectors = mod.relation_vectors
    for step in range(length):
        try:
            if step:
                floor = _frame_floor(ring, stages[-2], [row for _, row in gens])
            if floor is None:
                break
            gens, maps = _minimal_generators(ring, stages[-1], vectors, floor)
        except ContractViolation as e:
            raise ContractViolation(f"resolution stage {step + 1}: {e}") from None
        if not gens:
            break
        prev = stages[-1]
        stages.append(FreeModule(ring, [d for d, _ in gens],
                                 [f"s{step + 1}_{i}" for i in range(len(gens))]))
        diffs.append({(a, b): p for b, (_, row) in enumerate(gens)
                      for a, p in enumerate(row) if p})
        # the kernel of the new differential, read off the walk's maps where
        # it reached; the maps of the stage before are dropped here
        vectors = lambda t, m=maps, f=stages[-1], p=prev, d=diffs[-1]: \
            kernel_rows(m[t] if t in m else poly_matrix_realize(ring, f, p, d, t))[0]
    # a stage with no generators ends the resolution: the later ones are zero
    while len(stages) <= length:
        stages.append(FreeModule(ring, []))
        diffs.append({})
    return Resolution(ring, stages, diffs)


# Tor / Ext -----------------------------------------------------------------


def tor(mod1: GradedModule, mod2: GradedModule, w: Window) -> Dict[Tuple[int, int], int]:
    """dim_k Tor_p(mod1, mod2)_t for p in [s_lo, s_hi], t in the window.

    The homology of F (x) mod2 for a minimal free resolution F of mod1,
    realized by complexes.free_tensor.
    """
    from .complexes import homology, resolution_complex
    if mod1.ring is not mod2.ring:
        raise ContractViolation("modules over different rings")
    res = minimal_free_resolution(mod1, max(w.s_hi, 0) + 1)
    C = resolution_complex(res).realize(mod2, w, validate=False)
    return {(p, t): h for (p, t), h in homology(C, w).items()
            if w.s_lo <= p <= w.s_hi}


def ext(mod1: GradedModule, mod2: GradedModule, w: Window) -> Dict[Tuple[int, int], int]:
    """dim_k Ext^p(mod1, mod2)_t for p in [s_lo, s_hi], t in the window.

    The homology of Hom(F, mod2) for a minimal free resolution F of mod1,
    read at homological degree s = -p.
    """
    if mod1.ring is not mod2.ring:
        raise ContractViolation("modules over different rings")
    return resolution_ext(minimal_free_resolution(mod1, max(w.s_hi, 0) + 1),
                          mod2, w)


def resolution_ext(res: Resolution, mod2: GradedModule,
                   w: Window) -> Dict[Tuple[int, int], int]:
    """dim_k Ext^p(M, mod2)_t for p in [s_lo, s_hi], t in the window, read
    off a free resolution res of M that reaches stage s_hi + 1 or ends
    before it, as the homology of Hom(res, mod2) at s = -p."""
    from .complexes import homology, resolution_complex
    C = resolution_complex(res).hom_into(mod2, w, validate=False)
    return {(-s, t): h for (s, t), h in homology(C, w).items()
            if w.s_lo <= -s <= w.s_hi}
