"""Graded rings, modules and ideals with windowed exact computations.

A ring is a connected graded-commutative k-algebra presented by generators in
strictly negative (homotopy) degrees and homogeneous relations.  Normal forms
come from a degree-truncated Buchberger completion under weighted degrevlex;
all module-level operations are realized degreewise as matrices over the
prime field and delegated to exactla.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exactla import (ContractViolation, Field, GF, SparseMatrix, extend_basis,
                      kernel_basis, kernel_rows, quotient_projection, rank, rref)

Mono = Tuple[int, ...]          # exponent vector over the ring's generators
Poly = Dict[Mono, int]          # monomial -> nonzero coefficient (raw residue)


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
        self.n = len(gens)

        rels: List[Poly] = []
        for r in relations:
            p = self.parse(r) if isinstance(r, str) else dict(r)
            if p:
                self._check_homogeneous(p)
                rels.append(p)
        # odd squares vanish in odd characteristic
        if characteristic != 2:
            for i, g in enumerate(gens):
                if g.odd:
                    sq = tuple(2 if j == i else 0 for j in range(self.n))
                    rels.append({sq: 1})
        self.relations: List[Poly] = rels
        self._gb: List[Poly] = []
        self._gb_bound = -1
        self._basis_cache: Dict[int, List[Mono]] = {}
        self._krull: Optional[int] = None

    # monomial layer --------------------------------------------------------

    def mono_degree(self, m: Mono) -> int:
        return -sum(e * w for e, w in zip(m, self.weights))

    def mono_weight(self, m: Mono) -> int:
        return sum(e * w for e, w in zip(m, self.weights))

    def order_key(self, m: Mono):
        # weighted degrevlex: higher key = larger monomial
        return (self.mono_weight(m), tuple(-e for e in reversed(m)))

    def mono_mul(self, a: Mono, b: Mono) -> Optional[Tuple[int, Mono]]:
        """Product with Koszul sign; None when an odd generator squares."""
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
        return all(x <= y for x, y in zip(a, b))

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
            expecting_factor = True
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
                    if i + 1 < len(tokens) + 1 and i < len(tokens) and tokens[i] == "^":
                        exp = int(tokens[i + 1])
                        i += 2
                    gp = self.gen_poly(self.gen_index[name])
                    for _ in range(exp):
                        mono = self.poly_mul(mono, gp)
                expecting_factor = False
            term = self.poly_scale(mono, coeff)
            result = self.poly_add(result, term)
            if i < len(tokens):
                sign = 1 if tokens[i] == "+" else -1
                i += 1
                if expecting_factor and not result and sign:
                    pass
        return result

    # normal forms ----------------------------------------------------------

    def _reduce(self, p: Poly, basis: List[Poly]) -> Poly:
        """Full reduction of p modulo basis (leading terms already computed)."""
        f = self.field
        work = dict(p)
        out: Poly = {}
        lead = [(self.leading(g), g) for g in basis if g]
        while work:
            m = max(work, key=self.order_key)
            c = work.pop(m)
            hit = None
            for (lm, lc), g in lead:
                if self.mono_divides(lm, m):
                    hit = (lm, lc, g)
                    break
            if hit is None:
                out[m] = c
                continue
            lm, lc, g = hit
            q = tuple(a - b for a, b in zip(m, lm))
            sgn_prod = self.poly_mul({q: 1}, g)
            # coefficient of m inside q*g
            cm = sgn_prod[m]
            factor = (c * f.inv(cm)) % self.characteristic
            red = self.poly_scale(sgn_prod, -factor)
            red.pop(m, None)
            work = self.poly_add(work, red)
        return out

    def complete(self, weight_bound: int) -> List[Poly]:
        """Buchberger completion keeping everything of weight <= weight_bound."""
        if weight_bound <= self._gb_bound:
            return self._gb
        basis = [dict(r) for r in self.relations if r]
        basis = [b for b in basis if b]
        pairs = list(itertools.combinations(range(len(basis)), 2))
        guard = 0
        while pairs:
            guard += 1
            if guard > 20000:
                raise ContractViolation(
                    f"completion runaway: Buchberger completion up to weight "
                    f"{weight_bound} exceeded 20000 S-pairs")
            i, j = pairs.pop()
            gi, gj = basis[i], basis[j]
            (lmi, _), (lmj, _) = self.leading(gi), self.leading(gj)
            lcm = tuple(max(a, b) for a, b in zip(lmi, lmj))
            if self.mono_weight(lcm) > weight_bound + max(self.weights):
                continue
            qi = tuple(a - b for a, b in zip(lcm, lmi))
            qj = tuple(a - b for a, b in zip(lcm, lmj))
            pi = self.poly_mul({qi: 1}, gi)
            pj = self.poly_mul({qj: 1}, gj)
            ci = pi.get(lcm, 0)
            cj = pj.get(lcm, 0)
            if ci == 0 or cj == 0:
                spol = pi if ci == 0 else pj
            else:
                spol = self.poly_add(self.poly_scale(pi, cj), self.poly_scale(pj, -ci))
            nf = self._reduce(spol, basis)
            if nf:
                if self.mono_weight(self.leading(nf)[0]) <= weight_bound + max(self.weights):
                    basis.append(nf)
                    pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
        self._gb = basis
        self._gb_bound = weight_bound
        self._basis_cache.clear()
        return basis

    def normal_form(self, p, weight_bound: Optional[int] = None) -> Poly:
        """Canonical representative of a homogeneous element modulo relations."""
        if isinstance(p, str):
            p = self.parse(p)
        if not p:
            return {}
        self._check_homogeneous(p)
        w = self.mono_weight(next(iter(p)))
        basis = self.complete(max(w, weight_bound or 0))
        return self._reduce(p, basis)

    def basis_in_degree(self, t: int) -> List[Mono]:
        """Normal-form monomials of homotopy degree t, deterministic order."""
        if t > 0:
            return []
        if t in self._basis_cache:
            return self._basis_cache[t]
        weight = -t
        basis = self.complete(weight)
        leads = [self.leading(g)[0] for g in basis if g]
        out: List[Mono] = []

        def rec(i: int, remaining: int, acc: List[int]):
            if i == self.n:
                if remaining == 0:
                    m = tuple(acc)
                    if not any(self.mono_divides(lm, m) for lm in leads):
                        out.append(m)
                return
            w = self.weights[i]
            top = remaining // w
            if self.parity[i]:
                top = min(top, 1)
            for e in range(top + 1):
                rec(i + 1, remaining - e * w, acc + [e])

        rec(0, weight, [])
        out.sort(key=self.order_key)
        self._basis_cache[t] = out
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

    def krull_dim(self, completion_weight: Optional[int] = None) -> int:
        if self._krull is not None:
            return self._krull
        ring = self.even_projection_ring()
        if ring is not self:
            self._krull = ring.krull_dim(completion_weight)
            return self._krull
        bound = completion_weight or max(
            12, 2 * max([self.mono_weight(self.leading(r)[0]) for r in self.relations] or [1]))
        basis = self.complete(bound)
        leads = [self.leading(g)[0] for g in basis if g]
        best = 0
        for r in range(self.n, -1, -1):
            found = False
            for subset in itertools.combinations(range(self.n), r):
                sset = set(subset)
                ok = True
                for lm in leads:
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
        return GradedRing(self.characteristic,
                          [(g.name, g.degree, g.odd) for g in self.generators],
                          list(self.relations) + [dict(r) for r in extra_relations],
                          name=name)

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.degree}" + ("'" if g.odd else "")
                         for g in self.generators)
        return f"GradedRing(F{self.characteristic}[{gens}], {len(self.relations)} relations)"


class HomIdeal:
    """Finitely generated homogeneous ideal with cached quotient dimension."""

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
        self._dim: Optional[int] = None

    @property
    def dim_of_quotient(self) -> int:
        if self._dim is None:
            self._dim = self.ring.quotient(self.gens).krull_dim()
        return self._dim

    def is_maximal(self) -> bool:
        return self.dim_of_quotient == 0 and all(
            any(m != (0,) * self.ring.n for m in g) for g in self.gens)

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

    def element_from_coords(self, v: Sequence[int], t: int) -> List[Poly]:
        basis = self.basis_in_degree(t)
        row = [{} for _ in range(self.rank)]
        for c, (i, m) in zip(v, basis):
            if c:
                row[i] = self.ring.poly_add(row[i], {m: c % self.ring.characteristic})
        return row


def poly_matrix_realize(ring: GradedRing, source: FreeModule, target: FreeModule,
                        entries: Dict[Tuple[int, int], Poly], t: int) -> SparseMatrix:
    """Realize a matrix of ring entries as a k-matrix in internal degree t.

    entries[(a, b)] maps source generator b to the coefficient of target
    generator a.  The realized matrix maps source coords at degree t to
    target coords at degree t.
    """
    sb = source.basis_in_degree(t)
    tb = target.basis_in_degree(t)
    tpos = {bm: i for i, bm in enumerate(tb)}
    by_source: Dict[int, List[Tuple[int, Poly]]] = {}
    for (a, b), p in entries.items():
        if p:
            by_source.setdefault(b, []).append((a, p))
    ent: Dict[Tuple[int, int], int] = {}
    for j, (b, m) in enumerate(sb):
        for a, p in by_source.get(b, ()):
            prod = ring.normal_form(ring.poly_mul({m: 1}, p))
            for mm, c in prod.items():
                key = (a, mm)
                if key in tpos:
                    ent[(tpos[key], j)] = (ent.get((tpos[key], j), 0) + c) % ring.characteristic
    ent = {k: v for k, v in ent.items() if v}
    return SparseMatrix._trusted(ring.field, len(tb), len(sb), ent)


# finitely presented modules ------------------------------------------------


class GradedModule:
    """Finitely presented graded module, realized degreewise on demand.

    Presentation: free module on `generators` modulo the row span of
    `relations` (each row: one Poly per generator).
    """

    def __init__(self, ring: GradedRing, generators: Sequence[Tuple[str, int]],
                 relations: Sequence[Sequence] = (), name: str = "M"):
        self.ring = ring
        self.generators = [(n, d) for (n, d) in generators]
        self.free = FreeModule(ring, [d for _, d in generators], [n for n, _ in generators])
        self.name = name
        rel_rows: List[List[Poly]] = []
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
        self.relations = rel_rows
        self._deg_cache: Dict[int, Tuple[List[Tuple[int, Mono]], SparseMatrix, List[int]]] = {}

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
    def residue_field(cls, ring: GradedRing, name: str = "k"):
        gens = [("u", 0)]
        rels = [[ring.gen_poly(i)] for i in range(ring.n)]
        return cls(ring, gens, rels, name)

    @property
    def top_degree(self) -> int:
        return max((d for _, d in self.generators), default=0)

    def _relation_span(self, t: int) -> SparseMatrix:
        """Row matrix spanning the relation submodule in degree t."""
        basis = self.free.basis_in_degree(t)
        pos = {bm: i for i, bm in enumerate(basis)}
        rows: List[Dict[int, int]] = []
        ring = self.ring
        for row in self.relations:
            rdeg = None
            for j, p in enumerate(row):
                if p:
                    rdeg = ring.poly_degree(p) + self.generators[j][1]
                    break
            if rdeg is None:
                continue
            for mu in ring.basis_in_degree(t - rdeg):
                vec: Dict[int, int] = {}
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
        return SparseMatrix._trusted(ring.field, len(rows), len(basis), ent)

    def _realize(self, t: int):
        if t not in self._deg_cache:
            basis = self.free.basis_in_degree(t)
            span = self._relation_span(t)
            proj, free_cols = quotient_projection(span)
            self._deg_cache[t] = (basis, proj, free_cols)
        return self._deg_cache[t]

    def dim_in_degree(self, t: int) -> int:
        if t > self.top_degree:
            return 0
        _, proj, _ = self._realize(t)
        return proj.rows

    def basis_in_degree(self, t: int) -> List[str]:
        """Monomial labels of the chosen degree-t basis, deterministic order."""
        basis, _, free_cols = self._realize(t)
        out = []
        for c in free_cols:
            i, m = basis[c]
            mono = self.ring.poly_str({m: 1})
            gen = self.generators[i][0]
            out.append(gen if mono == "1" else f"{mono}*{gen}")
        return out

    def element_action(self, p, t: int) -> SparseMatrix:
        """Matrix of multiplication by homogeneous element p: deg t -> t + |p|."""
        ring = self.ring
        if isinstance(p, str):
            p = ring.parse(p)
        p = ring.normal_form(p)
        if not p:
            return SparseMatrix(ring.field, 0, self.dim_in_degree(t))
        dp = ring.poly_degree(p)
        t2 = t + dp
        basis, _, free_cols = self._realize(t)
        tgt_basis, tproj, _ = self._realize(t2)
        tpos = {bm: i for i, bm in enumerate(tgt_basis)}
        proj_cols: Dict[int, List[Tuple[int, int]]] = {}
        for (r, c), v in tproj.entries.items():
            proj_cols.setdefault(c, []).append((r, v))
        ent = {}
        for j, c in enumerate(free_cols):
            i, m = basis[c]
            col: Dict[int, int] = {}
            for mm, cc in ring.normal_form(ring.poly_mul({m: 1}, p)).items():
                for r, v in proj_cols.get(tpos.get((i, mm)), ()):
                    col[r] = col.get(r, 0) + cc * v
            for r in sorted(col):
                v = col[r] % ring.characteristic
                if v:
                    ent[(r, j)] = v
        return SparseMatrix._trusted(ring.field, tproj.rows, len(free_cols), ent)

    def generator_action(self, gi: int, t: int) -> SparseMatrix:
        return self.element_action(self.ring.gen_poly(gi), t)

    def __repr__(self):
        return f"GradedModule({self.name}, {len(self.generators)} gens, {len(self.relations)} rels)"


def hilbert_function(mod: GradedModule, w: Window) -> Dict[int, int]:
    """dim_k of each internal degree in [t_lo, t_hi]."""
    return {t: mod.dim_in_degree(t) for t in w.t_range()}


# resolutions ---------------------------------------------------------------


class Resolution:
    """Chain of free modules F_len -> ... -> F_0 with ring-entry differentials.

    Exact (except at stage 0) for internal degrees inside the window it was
    computed on; minimal by construction.
    """

    def __init__(self, ring: GradedRing, stages: List[FreeModule],
                 diffs: List[Dict[Tuple[int, int], Poly]], window: Window):
        self.ring = ring
        self.stages = stages
        self.diffs = diffs  # diffs[i]: stages[i+1] -> stages[i]
        self.window = window

    def realize_diff(self, i: int, t: int) -> SparseMatrix:
        return poly_matrix_realize(self.ring, self.stages[i + 1], self.stages[i],
                                   self.diffs[i], t)

    @property
    def length(self) -> int:
        return len(self.stages) - 1


def _minimal_generators(ring: GradedRing, free: FreeModule, vectors_by_degree,
                        w: Window) -> Tuple[List[Tuple[int, List[Poly]]],
                                            Dict[int, SparseMatrix]]:
    """Pick minimal submodule generators from degreewise spans, top degree down.

    vectors_by_degree(t) must return an int64 array whose rows (coordinates in
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
    top = max((d for d in free.gen_degrees), default=0)
    chosen: List[Tuple[int, List[Poly]]] = []
    maps: Dict[int, SparseMatrix] = {}
    for t in range(min(top, w.t_hi), w.t_lo - 1, -1):
        basis = free.basis_in_degree(t)
        span_vectors = vectors_by_degree(t) if basis else []
        if not len(span_vectors):
            # the submodule vanishes in degree t, and with it every multiple
            r = sum(ring.dim_in_degree(t - dg) for dg, _ in chosen)
            maps[t] = SparseMatrix._trusted(ring.field, len(basis), r, {})
            continue
        # ring multiples of already chosen generators in degree t, one row
        # each, in FreeModule.basis_in_degree order; each product is
        # normal-formed once
        pos = {bm: i for i, bm in enumerate(basis)}
        ent: Dict[Tuple[int, int], int] = {}
        r = 0
        for dg, row in chosen:
            terms = [(a, p) for a, p in enumerate(row) if p]
            for mu in ring.basis_in_degree(t - dg):
                for a, p in terms:
                    for m, c in ring.normal_form(ring.poly_mul({mu: 1}, p)).items():
                        try:
                            ent[(r, pos[(a, m)])] = c
                        except KeyError:
                            raise ContractViolation(
                                "element has support outside basis degree") from None
                r += 1
        old = SparseMatrix._trusted(ring.field, r, len(basis), ent)
        for vv in extend_basis(old, span_vectors):
            chosen.append((t, free.element_from_coords(vv.tolist(), t)))
            for c in np.flatnonzero(vv).tolist():
                ent[(r, c)] = int(vv[c])
            r += 1
        maps[t] = SparseMatrix._trusted(ring.field, len(basis), r,
                                        {(j, i): c for (i, j), c in ent.items()})
    return chosen, maps


def minimal_free_resolution(mod: GradedModule, length: int, w: Window) -> Resolution:
    """Windowed minimal free resolution of length `length`."""
    if length < 0:
        raise ContractViolation("length must be >= 0")
    ring = mod.ring
    stages = [FreeModule(ring, [d for _, d in mod.generators],
                         [n for n, _ in mod.generators])]
    diffs: List[Dict[Tuple[int, int], Poly]] = []

    def relation_vectors(t):
        red, pivots = rref(mod._relation_span(t))
        return red.array[:len(pivots)]

    prev_vectors = relation_vectors
    prev_free = stages[0]
    for step in range(length):
        gens, maps = _minimal_generators(ring, prev_free, prev_vectors, w)
        if not gens:
            stages.append(FreeModule(ring, []))
            diffs.append({})
            prev_vectors = lambda t: []
            prev_free = stages[-1]
            continue
        new_free = FreeModule(ring, [d for d, _ in gens],
                              [f"s{step + 1}_{i}" for i in range(len(gens))])
        dmat: Dict[Tuple[int, int], Poly] = {}
        for b, (dg, row) in enumerate(gens):
            for a, p in enumerate(row):
                if p:
                    dmat[(a, b)] = p
        stages.append(new_free)
        diffs.append(dmat)
        prev_vectors = lambda t, maps=maps: kernel_rows(maps[t])[0]
        prev_free = new_free
    return Resolution(ring, stages, diffs, w)


# Tor / Ext -----------------------------------------------------------------


def tor(mod1: GradedModule, mod2: GradedModule, w: Window) -> Dict[Tuple[int, int], int]:
    """dim_k Tor_p(mod1, mod2)_t for p in [s_lo, s_hi], t in the window.

    The homology of F (x) mod2 for a minimal free resolution F of mod1,
    realized by complexes.free_tensor.
    """
    from .complexes import homology, resolution_complex
    if mod1.ring is not mod2.ring:
        raise ContractViolation("modules over different rings")
    res = minimal_free_resolution(mod1, max(w.s_hi, 0) + 1, w)
    C = resolution_complex(res, w).realize(mod2, w, validate=False)
    return {(p, t): h for (p, t), h in homology(C, w).items()
            if w.s_lo <= p <= w.s_hi}


def ext(mod1: GradedModule, mod2: GradedModule, w: Window) -> Dict[Tuple[int, int], int]:
    """dim_k Ext^p(mod1, mod2)_t for p in [s_lo, s_hi], t in the window.

    The homology of Hom(F, mod2) for a minimal free resolution F of mod1,
    read at homological degree s = -p.
    """
    from .complexes import homology, resolution_complex
    if mod1.ring is not mod2.ring:
        raise ContractViolation("modules over different rings")
    res = minimal_free_resolution(mod1, max(w.s_hi, 0) + 1,
                                  Window(w.t_lo - 1, w.t_hi, w.s_lo, w.s_hi))
    C = resolution_complex(res, w).hom_into(mod2, w, validate=False)
    return {(-s, t): h for (s, t), h in homology(C, w).items()
            if w.s_lo <= -s <= w.s_hi}


# Matlis duality ------------------------------------------------------------


class DegreewiseModel:
    """Degreewise dims plus generator-action matrices; the common currency for
    window-level isomorphism checks."""

    def __init__(self, ring: GradedRing, dims: Dict[int, int],
                 actions: Dict[Tuple[int, int], SparseMatrix]):
        self.ring = ring
        self.dims = {t: d for t, d in dims.items() if d}
        self.actions = actions  # (gen index, t) -> matrix deg t -> t + deg_g

    def dim(self, t: int) -> int:
        return self.dims.get(t, 0)

    def action(self, gi: int, t: int) -> SparseMatrix:
        key = (gi, t)
        if key in self.actions:
            return self.actions[key]
        g = self.ring.generators[gi]
        return SparseMatrix(self.ring.field, self.dim(t + g.degree), self.dim(t))

    @classmethod
    def of_module(cls, mod: GradedModule, w: Window) -> "DegreewiseModel":
        dims = {t: mod.dim_in_degree(t) for t in w.t_range()}
        actions = {}
        for gi, g in enumerate(mod.ring.generators):
            for t in w.t_range():
                if w.t_lo <= t + g.degree <= w.t_hi and dims.get(t):
                    actions[(gi, t)] = mod.generator_action(gi, t)
        return cls(mod.ring, dims, actions)


def matlis_dual(model, w: Window) -> DegreewiseModel:
    """Degreewise k-linear dual with transposed generator actions.

    Accepts a GradedModule or a DegreewiseModel; the dual of degree t is the
    dual of the input's degree -t piece.
    """
    if isinstance(model, GradedModule):
        inner = Window(-w.t_hi, -w.t_lo, w.s_lo, w.s_hi)
        model = DegreewiseModel.of_module(model, inner)
    ring = model.ring
    dims = {-t: d for t, d in model.dims.items() if -w.t_hi <= -t <= w.t_hi}
    dims = {t: d for t, d in dims.items() if w.t_lo <= t <= w.t_hi}
    actions = {}
    for gi, g in enumerate(ring.generators):
        for t in range(w.t_lo, w.t_hi + 1):
            # action deg t -> t + deg_g on the dual = transpose of
            # action deg -t - deg_g -> -t on the input
            src = -t - g.degree
            if (gi, src) in model.actions:
                actions[(gi, t)] = model.actions[(gi, src)].transpose()
    return DegreewiseModel(ring, dims, actions)


def models_isomorphic(a: DegreewiseModel, b: DegreewiseModel, w: Window,
                      seed: int = 0, tries: int = 8) -> bool:
    """Hilbert equality + action rank profiles + window intertwiner solve."""
    ts = [t for t in w.t_range()]
    for t in ts:
        if a.dim(t) != b.dim(t):
            return False
    ring = a.ring
    f = ring.field
    # unknowns: phi_t entries for each t with dim > 0
    var_index: Dict[Tuple[int, int, int], int] = {}
    nvars = 0
    for t in ts:
        d = a.dim(t)
        for i in range(d):
            for j in range(d):
                var_index[(t, i, j)] = nvars
                nvars += 1
    if nvars == 0:
        return True
    rows: List[Dict[int, int]] = []
    for gi, g in enumerate(ring.generators):
        for t in ts:
            t2 = t + g.degree
            if t2 < w.t_lo or t2 > w.t_hi:
                continue
            if a.dim(t) == 0 and b.dim(t) == 0:
                continue
            A = a.action(gi, t)
            B = b.action(gi, t)
            # constraint: phi_{t2} ∘ A = B ∘ phi_t
            d2, d1 = a.dim(t2), a.dim(t)
            for r in range(d2):
                for c in range(d1):
                    row: Dict[int, int] = {}
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
    sys = SparseMatrix(f, len(rows), nvars, ent)
    sol_space = kernel_basis(sys)
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


# residue ranks at non-maximal primes ---------------------------------------


class ExtField:
    """GF(p^e) as polynomials mod a found irreducible; element = int tuple."""

    def __init__(self, p: int, e: int):
        self.p = p
        self.e = e
        self.modpoly = self._find_irreducible()

    def _poly_mulmod(self, a, b):
        p, e = self.p, self.e
        res = [0] * (2 * e)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    res[i + j] = (res[i + j] + x * y) % p
        for i in range(2 * e - 1, e - 1, -1):
            c = res[i]
            if c:
                res[i] = 0
                for j, m in enumerate(self.modpoly):
                    res[i - e + j] = (res[i - e + j] - c * m) % p
        return tuple(res[:e])

    def _find_irreducible(self):
        p, e = self.p, self.e
        if e == 1:
            return (0,)
        # brute force: monic x^e + lower terms with no roots and not a product
        # of lower-degree monics (checked by trial division over all monics)
        lower = []
        for d in range(1, e):
            for coeffs in itertools.product(range(p), repeat=d):
                lower.append(tuple(coeffs) + (1,))  # monic of degree d
        for coeffs in itertools.product(range(p), repeat=e):
            cand = list(coeffs) + [1]
            if cand[0] == 0:
                continue
            ok = True
            for g in lower:
                if len(g) - 1 > e // 2 + 1:
                    continue
                if self._poly_divides(g, cand):
                    ok = False
                    break
            if ok:
                return tuple(coeffs)
        raise RuntimeError("no irreducible found")

    def _poly_divides(self, g, f):
        p = self.p
        f = list(f)
        dg = len(g) - 1
        for i in range(len(f) - 1, dg - 1, -1):
            c = f[i]
            if c:
                inv = pow(g[dg], p - 2, p)
                q = (c * inv) % p
                for j in range(dg + 1):
                    f[i - dg + j] = (f[i - dg + j] - q * g[j]) % p
        return not any(f)

    def zero(self):
        return (0,) * self.e

    def one(self):
        return (1,) + (0,) * (self.e - 1)

    def from_int(self, n):
        return (n % self.p,) + (0,) * (self.e - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        return self._poly_mulmod(a, b)

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def inv(self, a):
        # a^(p^e - 2)
        n = self.p ** self.e - 2
        result = self.one()
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def random(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.e))

    def rank(self, rows: List[List[tuple]]) -> int:
        rows = [list(r) for r in rows]
        if not rows:
            return 0
        ncols = len(rows[0])
        r = 0
        for c in range(ncols):
            piv = next((i for i in range(r, len(rows)) if any(rows[i][c])), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = self.inv(rows[r][c])
            rows[r] = [self.mul(x, inv) for x in rows[r]]
            for i in range(len(rows)):
                if i != r and any(rows[i][c]):
                    fct = rows[i][c]
                    rows[i] = [self.add(x, self.neg(self.mul(fct, y)))
                               for x, y in zip(rows[i], rows[r])]
            r += 1
            if r == len(rows):
                break
        return r


def _eval_poly(ring: GradedRing, ext: ExtField, p: Poly, point: List[tuple]) -> tuple:
    acc = ext.zero()
    for m, c in p.items():
        term = ext.from_int(c)
        for i, e in enumerate(m):
            for _ in range(e):
                term = ext.mul(term, point[i])
        acc = ext.add(acc, term)
    return acc


def _sample_point(ring: GradedRing, ideal: HomIdeal, ext: ExtField,
                  rng: random.Random, tries: int = 400) -> Optional[List[tuple]]:
    """Random point on V(ideal): ring relations and ideal generators vanish."""
    # variables forced to zero: any variable occurring in every monomial of
    # some ideal generator is a cheap candidate
    forced = set()
    for g in ideal.gens:
        common = None
        for m in g:
            sup = {i for i, e in enumerate(m) if e}
            common = sup if common is None else (common & sup)
        if common and len(common) == 1:
            forced |= common
    odd = {i for i in range(ring.n) if ring.parity[i]}
    constraints = [ring.normal_form(r) if r else {} for r in ring.relations] + ideal.gens
    for attempt in range(tries):
        point = []
        for i in range(ring.n):
            if i in odd or (i in forced and attempt % 3 != 2):
                point.append(ext.zero())
            else:
                v = ext.random(rng)
                if not any(v) and attempt % 2 == 0:
                    v = ext.one()
                point.append(v)
        if all(not any(_eval_poly(ring, ext, c, point)) for c in constraints if c):
            if any(any(x) for x in point) or ring.n == len(odd):
                return point
    return None
