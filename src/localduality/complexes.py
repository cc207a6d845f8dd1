"""Windowed chain complexes of graded modules.

Two representations cooperate here.  FreeComplex is a bounded complex of
finite free modules with ring-element differentials; it supports structural
operations (shift, cone, tensor, dual) exactly.  free_tensor realizes F (x) X
for a free complex F and any windowed complex X, and is the one realization
engine: realizing against a module tensors with the module viewed as a
complex, so Tor(M, N) and Ext(M, N) are the homology of resolution (x) N and
of Hom(resolution, N) = dual (x) N for a free resolution of M.
WindowedComplex is the generic degreewise form: one k-vector space per
bidegree (s, t), differentials lowering s by one, and ring-generator action
matrices.  Homological degree s is bounded on both sides; internal degree t
vanishes above a known top and is only known down to the window floor.
Monomial actions on a windowed complex are memoised on it, each built from
the action of its prefix; a Koszul tower ages the memo of its input stage by
stage and clears it when the tower is built, so the memo does not live as
long as the tower's result.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .exactla import (ContractViolation, SparseMatrix, kernel_rows,
                      quotient_projection, rank, solve_matrix)
from .graded import FreeModule, GradedModule, GradedRing, Mono, Poly, Window

BiDeg = Tuple[int, int]


class WindowedComplex:
    """Degreewise realized complex over a graded ring.

    dims[(s, t)] gives the k-dimension; diffs[(s, t)] maps (s, t) -> (s-1, t);
    actions[(g, s, t)] maps (s, t) -> (s, t + deg_g).  Values at t below the
    window floor are unknown; values at t above t_top are genuinely zero.
    """

    def __init__(self, ring: GradedRing, dims: Dict[BiDeg, int],
                 diffs: Dict[BiDeg, SparseMatrix],
                 actions: Dict[Tuple[int, int, int], SparseMatrix],
                 s_min: int, s_max: int, t_top: int, window: Window,
                 flags: Optional[Dict] = None, validate: bool = False):
        self.ring = ring
        self.dims = {k: v for k, v in dims.items() if v}
        self.diffs = {k: m for k, m in diffs.items() if m.entries}
        self.actions = {k: m for k, m in actions.items() if m.entries}
        self.s_min = s_min
        self.s_max = s_max
        self.t_top = t_top
        self.window = window
        self.flags = dict(flags or {})
        self._hspaces: Dict[BiDeg, Tuple] = {}
        # monomial actions of the current and of the previous age
        self._monomials: Dict[Tuple[Mono, int, int], Optional[SparseMatrix]] = {}
        self._monomials_old: Dict[Tuple[Mono, int, int], Optional[SparseMatrix]] = {}
        if validate:
            self.validate()

    def dim(self, s: int, t: int) -> int:
        return self.dims.get((s, t), 0)

    def diff(self, s: int, t: int) -> SparseMatrix:
        m = self.diffs.get((s, t))
        if m is None:
            m = SparseMatrix._trusted(self.ring.field, self.dim(s - 1, t),
                                      self.dim(s, t), {})
        return m

    def action(self, g: int, s: int, t: int) -> SparseMatrix:
        m = self.actions.get((g, s, t))
        if m is None:
            dg = self.ring.generators[g].degree
            m = SparseMatrix._trusted(self.ring.field, self.dim(s, t + dg),
                                      self.dim(s, t), {})
        return m

    def known(self, s: int, t: int) -> bool:
        """Whether the (s, t) entry is determined (inside window or above top)."""
        if t > self.t_top:
            return True
        return self.window.t_lo <= t <= self.window.t_hi

    def bidegrees(self):
        return sorted(self.dims)

    def hspace(self, s: int, t: int):
        """homology_space(self, s, t), computed once per bidegree."""
        if (s, t) not in self._hspaces:
            self._hspaces[(s, t)] = homology_space(self, s, t)
        return self._hspaces[(s, t)]

    def monomial_action(self, mono: Mono, s: int, t: int) -> Optional[SparseMatrix]:
        """Multiplication by a monomial from (s, t), or None when it is zero
        or the generator actions along the way do not compose.

        The generators are applied in index order, so the action of mono is
        the action of its last generator after the action of the prefix;
        each result is memoised, and one used in the previous age is kept.
        A zero prefix makes every extension zero, so zero is kept as None.
        """
        key = (mono, s, t)
        if key in self._monomials:
            return self._monomials[key]
        if key in self._monomials_old:
            m = self._monomials_old[key]
        elif not any(mono):
            m = SparseMatrix.identity(self.ring.field, self.dim(s, t))
        else:
            last = max(i for i, e in enumerate(mono) if e)
            rest = mono[:last] + (mono[last] - 1,) + mono[last + 1:]
            a = self.action(last, s, t + self.ring.mono_degree(rest))
            if any(rest):
                m = self.monomial_action(rest, s, t)
                m = a @ m if m is not None and a.cols == m.rows else None
            else:
                # a after the identity is a itself
                m = a if a.cols == self.dim(s, t) else None
        if m is not None and not m.entries:
            m = None
        self._monomials[key] = m
        return m

    def age_monomial_actions(self):
        """Start a new age of the memo, dropping the monomial actions not used
        in the age just ended."""
        self._monomials_old, self._monomials = self._monomials, {}

    def clear_monomial_actions(self):
        """Drop every memoised monomial action."""
        self._monomials_old, self._monomials = {}, {}

    def validate(self):
        for (s, t), m in self.diffs.items():
            below = self.diff(s - 1, t)
            if t >= self.window.t_lo and (below @ m).entries:
                raise ContractViolation(f"d^2 != 0 at ({s}, {t})")
        for (g, s, t), a in self.actions.items():
            dg = self.ring.generators[g].degree
            if not (self.window.t_lo <= t + dg <= self.window.t_hi):
                continue
            lhs = self.action(g, s - 1, t) @ self.diff(s, t)
            rhs = self.diff(s, t + dg) @ a
            if (lhs.add(rhs.scale(self.ring.field.neg(1)))).entries:
                raise ContractViolation(f"action/differential mismatch at g={g}, ({s}, {t})")

    def __repr__(self):
        nz = len(self.dims)
        return (f"WindowedComplex(s in [{self.s_min},{self.s_max}], "
                f"t_top={self.t_top}, {nz} nonzero bidegrees)")


class ComplexMap:
    """Degree (0, 0) chain map between windowed complexes."""

    def __init__(self, source: WindowedComplex, target: WindowedComplex,
                 comps: Dict[BiDeg, SparseMatrix], validate: bool = False):
        self.source = source
        self.target = target
        self.comps = {k: m for k, m in comps.items() if m.entries}
        if validate:
            self.validate()

    def comp(self, s: int, t: int) -> SparseMatrix:
        m = self.comps.get((s, t))
        if m is None:
            m = SparseMatrix._trusted(self.source.ring.field,
                                      self.target.dim(s, t), self.source.dim(s, t), {})
        return m

    def validate(self):
        keys = set(self.source.dims) | set(self.comps)
        for (s, t) in keys:
            if t < max(self.source.window.t_lo, self.target.window.t_lo):
                continue
            lhs = self.comp(s - 1, t) @ self.source.diff(s, t)
            rhs = self.target.diff(s, t) @ self.comp(s, t)
            if lhs.add(rhs.scale(self.source.ring.field.neg(1))).entries:
                raise ContractViolation(f"not a chain map at ({s}, {t})")


def module_complex(mod: GradedModule, w: Window, t_top: Optional[int] = None,
                   s: int = 0) -> WindowedComplex:
    """A module viewed as a complex concentrated in homological degree s."""
    ring = mod.ring
    dims = {(s, t): mod.dim_in_degree(t) for t in w.t_range()}
    actions = {}
    for g, gen in enumerate(ring.generators):
        for t in w.t_range():
            if w.t_lo <= t + gen.degree <= w.t_hi and dims.get((s, t)):
                actions[(g, s, t)] = mod.generator_action(g, t)
    top = t_top if t_top is not None else mod.top_degree
    return WindowedComplex(ring, dims, {}, actions, s, s, top, w)


def shift(c: WindowedComplex, s_shift: int, t_shift: int = 0) -> WindowedComplex:
    """Suspension: shift(c)_{s,t} = c_{s - s_shift, t - t_shift}, sign (-1)^s_shift."""
    sgn = c.ring.field.neg(1) if s_shift % 2 else 1
    dims = {(s + s_shift, t + t_shift): v for (s, t), v in c.dims.items()}
    diffs = {(s + s_shift, t + t_shift): (m.scale(sgn) if s_shift % 2 else m)
             for (s, t), m in c.diffs.items()}
    actions = {(g, s + s_shift, t + t_shift): m
               for (g, s, t), m in c.actions.items()}
    w = Window(c.window.t_lo + t_shift, c.window.t_hi + t_shift,
               c.window.s_lo, c.window.s_hi)
    return WindowedComplex(c.ring, dims, diffs, actions,
                           c.s_min + s_shift, c.s_max + s_shift,
                           c.t_top + t_shift, w, flags=c.flags)


def _known_hi(c: WindowedComplex) -> int:
    """Top of the region where c is determined; everything above t_top is
    genuinely zero, so a window reaching t_top extends to all higher t."""
    return 10 ** 9 if c.window.t_hi >= c.t_top else c.window.t_hi


def cone(f: ComplexMap) -> WindowedComplex:
    """Mapping cone: cone(f)_{s,t} = A_{s-1,t} + B_{s,t}, d(a,b) = (-da, fa+db)."""
    A, B = f.source, f.target
    ring = A.ring
    fld = ring.field
    top = max(A.t_top, B.t_top)
    w = Window(max(A.window.t_lo, B.window.t_lo),
               max(min(_known_hi(A), _known_hi(B), top),
                   max(A.window.t_lo, B.window.t_lo)))
    dims: Dict[BiDeg, int] = {}
    for (s, t), v in A.dims.items():
        dims[(s + 1, t)] = dims.get((s + 1, t), 0) + v
    for (s, t), v in B.dims.items():
        dims[(s, t)] = dims.get((s, t), 0) + v
    diffs: Dict[BiDeg, SparseMatrix] = {}
    actions: Dict[Tuple[int, int, int], SparseMatrix] = {}
    s_lo = min(A.s_min + 1, B.s_min)
    s_hi = max(A.s_max + 1, B.s_max)
    for s in range(s_lo, s_hi + 1):
        for t in range(w.t_lo, max(A.t_top, B.t_top) + 1):
            da, db = A.dim(s - 1, t), B.dim(s, t)
            ta, tb = A.dim(s - 2, t), B.dim(s - 1, t)
            if da + db == 0 or ta + tb == 0:
                pass
            ent: Dict[Tuple[int, int], int] = {}
            dA = A.diff(s - 1, t)
            for (i, j), v in dA.entries.items():
                ent[(i, j)] = fld.neg(v)
            fm = f.comp(s - 1, t)
            for (i, j), v in fm.entries.items():
                ent[(ta + i, j)] = v
            dB = B.diff(s, t)
            for (i, j), v in dB.entries.items():
                ent[(ta + i, da + j)] = v
            if ent:
                diffs[(s, t)] = SparseMatrix(fld, ta + tb, da + db, ent)
            for g, gen in enumerate(ring.generators):
                t2 = t + gen.degree
                aent: Dict[Tuple[int, int], int] = {}
                for (i, j), v in A.action(g, s - 1, t).entries.items():
                    aent[(i, j)] = v
                da2 = A.dim(s - 1, t2)
                for (i, j), v in B.action(g, s, t).entries.items():
                    aent[(da2 + i, da + j)] = v
                if aent:
                    actions[(g, s, t)] = SparseMatrix(
                        fld, da2 + B.dim(s, t2), da + db, aent)
    return WindowedComplex(ring, dims, diffs, actions, s_lo, s_hi,
                           max(A.t_top, B.t_top), w)


def direct_sum(a: WindowedComplex, b: WindowedComplex) -> WindowedComplex:
    zero = ComplexMap(shift(a, -1), b, {})
    out = cone(zero)
    return out


def tensor(a: WindowedComplex, b: WindowedComplex) -> WindowedComplex:
    """Tensor over the ring, realized degreewise.

    Each bidegree is the quotient of the direct sum of k-tensor products by
    the balancing relations (g x) @ y - x @ (g y) over the ring generators;
    telescoping makes generator-level balancing sufficient.  Differential:
    d(x @ y) = dx @ y + (-1)^s x @ dy.
    """
    ring = a.ring
    fld = ring.field
    t_top = a.t_top + b.t_top
    t_lo = max(a.window.t_lo + b.t_top, b.window.t_lo + a.t_top)
    t_hi = min(a.window.t_hi + b.t_top, b.window.t_hi + a.t_top)
    if t_lo > t_hi:
        t_hi = t_lo
    w = Window(t_lo, min(t_hi, t_top) if t_hi >= t_lo else t_lo)
    s_lo, s_hi = a.s_min + b.s_min, a.s_max + b.s_max

    # raw summand layout per bidegree: list of (s1, t1, d1, d2, offset)
    layout: Dict[BiDeg, List[Tuple[int, int, int, int, int]]] = {}
    raw_dim: Dict[BiDeg, int] = {}
    for s in range(s_lo, s_hi + 1):
        for t in range(w.t_lo, t_top + 1):
            parts = []
            off = 0
            for s1 in range(a.s_min, a.s_max + 1):
                s2 = s - s1
                if s2 < b.s_min or s2 > b.s_max:
                    continue
                for t1 in range(t - b.t_top, a.t_top + 1):
                    t2 = t - t1
                    d1, d2 = a.dim(s1, t1), b.dim(s2, t2)
                    if d1 and d2:
                        parts.append((s1, t1, d1, d2, off))
                        off += d1 * d2
            layout[(s, t)] = parts
            raw_dim[(s, t)] = off

    # balancing relation span, quotient projections and sections of them;
    # any section works because the maps we conjugate descend to the quotient
    proj: Dict[BiDeg, SparseMatrix] = {}
    section: Dict[BiDeg, SparseMatrix] = {}
    for (s, t), parts in layout.items():
        pos = {(p[0], p[1]): p for p in parts}
        rows: List[Dict[int, int]] = []
        for g, gen in enumerate(ring.generators):
            dg = gen.degree
            for s1 in range(a.s_min, a.s_max + 1):
                s2 = s - s1
                if s2 < b.s_min or s2 > b.s_max:
                    continue
                for t1x in range(t - b.t_top - dg, a.t_top + 1):
                    # x in a at (s1, t1x); relation (g x) @ y - x @ (g y)
                    t1g = t1x + dg
                    t2y = t - t1g
                    dx = a.dim(s1, t1x)
                    dy = b.dim(s2, t2y)
                    if dx == 0 or dy == 0:
                        continue
                    ga = a.action(g, s1, t1x)        # (s1,t1x) -> (s1,t1g)
                    gb = b.action(g, s2, t2y)        # (s2,t2y) -> (s2,t2y+dg)
                    left = pos.get((s1, t1g))
                    right = pos.get((s1, t1x))
                    for ix in range(dx):
                        for iy in range(dy):
                            row: Dict[int, int] = {}
                            if left is not None:
                                _, _, ld1, ld2, loff = left
                                for (r, c), v in ga.entries.items():
                                    if c == ix:
                                        row[loff + r * ld2 + iy] = \
                                            (row.get(loff + r * ld2 + iy, 0) + v) \
                                            % ring.characteristic
                            if right is not None:
                                _, _, rd1, rd2, roff = right
                                for (r, c), v in gb.entries.items():
                                    if c == iy:
                                        idx = roff + ix * rd2 + r
                                        row[idx] = (row.get(idx, 0) - v) % ring.characteristic
                            row = {k: v for k, v in row.items() if v}
                            if row:
                                rows.append(row)
        ent = {}
        for i, row in enumerate(rows):
            for j, v in row.items():
                ent[(i, j)] = v
        span = SparseMatrix(fld, len(rows), raw_dim[(s, t)], ent)
        proj[(s, t)], free = quotient_projection(span)
        section[(s, t)] = _inclusion(fld, span.cols, free)

    dims = {k: p.rows for k, p in proj.items() if p.rows}

    def raw_map(key_src, key_tgt, block_fn):
        """Assemble a raw-summand level map then conjugate by proj/section."""
        parts_s = layout.get(key_src, [])
        parts_t = layout.get(key_tgt, [])
        tpos = {(p[0], p[1]): p for p in parts_t}
        ent: Dict[Tuple[int, int], int] = {}
        for (s1, t1, d1, d2, off) in parts_s:
            for tgt_key, mat, side in block_fn(s1, t1, d1, d2):
                tp = tpos.get(tgt_key)
                if tp is None:
                    continue
                _, _, e1, e2, toff = tp
                if side == "left":      # mat acts on the first factor
                    for (r, c), v in mat.entries.items():
                        for iy in range(d2):
                            k = (toff + r * e2 + iy, off + c * d2 + iy)
                            ent[k] = (ent.get(k, 0) + v) % ring.characteristic
                else:                   # mat acts on the second factor
                    for (r, c), v in mat.entries.items():
                        for ix in range(d1):
                            k = (toff + ix * e2 + r, off + ix * d2 + c)
                            ent[k] = (ent.get(k, 0) + v) % ring.characteristic
        ent = {k: v for k, v in ent.items() if v}
        raw = SparseMatrix(fld, sum(p[2] * p[3] for p in parts_t),
                           sum(p[2] * p[3] for p in parts_s), ent)
        if key_tgt not in proj or key_src not in section:
            return SparseMatrix(fld, dims.get(key_tgt, 0), dims.get(key_src, 0))
        return proj[key_tgt] @ raw @ section[key_src]

    diffs: Dict[BiDeg, SparseMatrix] = {}
    actions: Dict[Tuple[int, int, int], SparseMatrix] = {}
    for (s, t) in layout:
        if (s - 1, t) in layout:
            def dblocks(s1, t1, d1, d2, s=s, t=t):
                out = []
                s2, t2 = s - s1, t - t1
                da = a.diff(s1, t1)
                if da.entries:
                    out.append(((s1 - 1, t1), da, "left"))
                db = b.diff(s2, t2)
                if db.entries:
                    sgn = fld.neg(1) if s1 % 2 else 1
                    out.append(((s1, t1), db.scale(sgn) if s1 % 2 else db, "right"))
                return out
            m = raw_map((s, t), (s - 1, t), dblocks)
            if m.entries:
                diffs[(s, t)] = m
        for g, gen in enumerate(ring.generators):
            t2t = t + gen.degree
            if (s, t2t) in layout:
                # act through the second factor; in the quotient this agrees
                # with acting through the first
                def ablocks(s1, t1, d1, d2, g=g, s=s, t=t):
                    gb = b.action(g, s - s1, t - t1)
                    return [((s1, t1), gb, "right")] if gb.entries else []
                m = raw_map((s, t), (s, t2t), ablocks)
                if m.entries:
                    actions[(g, s, t)] = m
    return WindowedComplex(ring, dims, diffs, actions, s_lo, s_hi, t_top, w)


# homology ------------------------------------------------------------------


def _inclusion(fld, cols: int, free: List[int]) -> SparseMatrix:
    """The section e_i -> e_free[i] of a quotient projection with complement
    basis free; quotient_projection's matrix is the identity on it."""
    return SparseMatrix._trusted(fld, cols, len(free),
                                 {(c, i): 1 for i, c in enumerate(free)})


def homology_space(c: WindowedComplex, s: int, t: int):
    """(K, P, sec) for H_{s,t}: the columns of K are a cycle basis, P projects
    cycle coordinates onto homology coordinates, and sec is a section of P,
    the inclusion of the complement basis on which P is the identity."""
    fld = c.ring.field
    d_in = c.diff(s + 1, t)
    k, _ = kernel_rows(c.diff(s, t))
    K = SparseMatrix._from_array(fld, k.T)
    # image of d_in expressed in cycle coordinates
    if d_in.entries and K.cols:
        img = solve_matrix(K, d_in)
        if img is None:
            raise ContractViolation("boundary not a cycle")
        span = img.transpose()
    else:
        span = SparseMatrix(fld, 0, K.cols)
    P, free = quotient_projection(span)
    return K, P, _inclusion(fld, K.cols, free)


def homology(c: WindowedComplex, w: Optional[Window] = None) -> Dict[BiDeg, int]:
    """dim H_{s,t} over known bidegrees (only fully determined ones reported)."""
    w = w or c.window
    out: Dict[BiDeg, int] = {}
    for s in range(c.s_min, c.s_max + 1):
        for t in range(max(w.t_lo, c.window.t_lo), min(w.t_hi, c.window.t_hi) + 1):
            d = c.dim(s, t)
            if d == 0:
                continue
            h = d - rank(c.diff(s, t)) - rank(c.diff(s + 1, t))
            if h:
                out[(s, t)] = h
    return out


def total_homology(c: WindowedComplex, w: Optional[Window] = None) -> Dict[int, int]:
    """dim of homotopy in each total degree n = s + t, restricted to safe n.

    n is safe when every homological stage contributes a known internal
    degree: n - s >= t_lo for all s in support, or n - s > t_top.
    """
    w = w or c.window
    bidg = homology(c, w)
    out: Dict[int, int] = {}
    lo_safe = w.t_lo + c.s_max
    hi_safe = w.t_hi + c.s_min
    for (s, t), v in bidg.items():
        n = s + t
        if lo_safe <= n <= hi_safe:
            out[n] = out.get(n, 0) + v
    return {n: v for n, v in sorted(out.items()) if v}


def induced_on_homology(source: WindowedComplex, target: WindowedComplex,
                        s: int, t: int, t2: int,
                        chain: Callable[[], SparseMatrix]) -> SparseMatrix:
    """Map H_{s,t}(source) -> H_{s,t2}(target) induced by a chain-level map.

    chain() returns the matrix source_{s,t} -> target_{s,t2}; it is built
    only when both homology spaces are nonzero.  The map descends to
    homology, so pushing the section's cycle representatives through it and
    projecting gives the induced matrix whichever section is used.
    """
    Ks, Ps, sec = source.hspace(s, t)
    Kt, Pt, _ = target.hspace(s, t2)
    if Ps.rows == 0 or Pt.rows == 0:
        return SparseMatrix(source.ring.field, Pt.rows, Ps.rows)
    x = solve_matrix(Kt, chain() @ (Ks @ sec))
    if x is None:
        raise ContractViolation("map does not preserve cycles")
    return Pt @ x


# free complexes ------------------------------------------------------------


class FreeComplex:
    """Bounded complex of finite free modules with ring-entry differentials.

    stages[s] is a FreeModule; diffs[s] maps stage s to stage s-1, stored as
    {(target_gen, source_gen): poly}.  Strictly R-linear differentials;
    homological-parity Koszul signs in tensor products (differential entries
    of odd internal parity must not meet across tensor factors, which the
    d^2 = 0 validation at realization enforces).
    """

    def __init__(self, ring: GradedRing, stages: Dict[int, FreeModule],
                 diffs: Dict[int, Dict[Tuple[int, int], Poly]]):
        self.ring = ring
        self.stages = {s: f for s, f in stages.items() if f.rank}
        self.diffs = {s: {k: p for k, p in d.items() if p}
                      for s, d in diffs.items()}
        self.diffs = {s: d for s, d in self.diffs.items() if d}

    @classmethod
    def unit(cls, ring: GradedRing) -> "FreeComplex":
        return cls(ring, {0: FreeModule(ring, [0], ["1"])}, {})

    @property
    def s_min(self) -> int:
        return min(self.stages, default=0)

    @property
    def s_max(self) -> int:
        return max(self.stages, default=0)

    def stage(self, s: int) -> FreeModule:
        return self.stages.get(s) or FreeModule(self.ring, [])

    def diff_entries(self, s: int) -> Dict[Tuple[int, int], Poly]:
        return self.diffs.get(s, {})

    def top_internal(self) -> int:
        return max((max(f.gen_degrees) for f in self.stages.values()), default=0)

    def shift(self, s_shift: int, t_shift: int = 0) -> "FreeComplex":
        sgn = -1 if s_shift % 2 else 1
        stages = {s + s_shift: FreeModule(self.ring,
                                          [d + t_shift for d in f.gen_degrees],
                                          f.labels)
                  for s, f in self.stages.items()}
        diffs = {}
        for s, d in self.diffs.items():
            diffs[s + s_shift] = {k: (self.ring.poly_scale(p, sgn) if sgn == -1 else p)
                                  for k, p in d.items()}
        return FreeComplex(self.ring, stages, diffs)

    def cone(self, other: "FreeComplex",
             chain_map: Dict[int, Dict[Tuple[int, int], Poly]]) -> "FreeComplex":
        """Cone of a chain map self -> other; stage s = self_{s-1} + other_s."""
        ring = self.ring
        stages: Dict[int, FreeModule] = {}
        offA: Dict[int, int] = {}
        lo = min(self.s_min + 1, other.s_min)
        hi = max(self.s_max + 1, other.s_max)
        for s in range(lo, hi + 1):
            fa = self.stage(s - 1)
            fb = other.stage(s)
            if fa.rank + fb.rank == 0:
                continue
            offA[s] = fa.rank
            stages[s] = FreeModule(ring, fa.gen_degrees + fb.gen_degrees,
                                   [f"a.{l}" for l in fa.labels] +
                                   [f"b.{l}" for l in fb.labels])
        diffs: Dict[int, Dict[Tuple[int, int], Poly]] = {}
        for s in range(lo, hi + 1):
            if s not in stages or (s - 1) not in stages:
                continue
            ent: Dict[Tuple[int, int], Poly] = {}
            ra = self.stage(s - 1).rank
            ta = self.stage(s - 2).rank
            for (i, j), p in self.diff_entries(s - 1).items():
                ent[(i, j)] = ring.poly_scale(p, -1)
            for (i, j), p in chain_map.get(s - 1, {}).items():
                ent[(ta + i, j)] = p
            for (i, j), p in other.diff_entries(s).items():
                ent[(ta + i, ra + j)] = p
            if ent:
                diffs[s] = ent
        return FreeComplex(ring, stages, diffs)

    def tensor(self, other: "FreeComplex") -> "FreeComplex":
        """Structural tensor; d(x@y) = dx@y + (-1)^{s1} x@dy."""
        ring = self.ring
        stages: Dict[int, FreeModule] = {}
        index: Dict[int, List[Tuple[int, int, int]]] = {}
        for s in range(self.s_min + other.s_min, self.s_max + other.s_max + 1):
            degs, labels, idx = [], [], []
            for s1 in range(self.s_min, self.s_max + 1):
                s2 = s - s1
                f1, f2 = self.stage(s1), other.stage(s2)
                for b1 in range(f1.rank):
                    for b2 in range(f2.rank):
                        idx.append((s1, b1, b2))
                        degs.append(f1.gen_degrees[b1] + f2.gen_degrees[b2])
                        labels.append(f"{f1.labels[b1]}@{f2.labels[b2]}")
            if degs:
                stages[s] = FreeModule(ring, degs, labels)
                index[s] = idx
        pos: Dict[int, Dict[Tuple[int, int, int], int]] = {
            s: {key: i for i, key in enumerate(idx)} for s, idx in index.items()}
        diffs: Dict[int, Dict[Tuple[int, int], Poly]] = {}
        for s, idx in index.items():
            if (s - 1) not in pos:
                continue
            ent: Dict[Tuple[int, int], Poly] = {}
            tgt = pos[s - 1]
            for j, (s1, b1, b2) in enumerate(idx):
                s2 = s - s1
                for (a1, bb1), p in self.diff_entries(s1).items():
                    if bb1 == b1 and (s1 - 1, a1, b2) in tgt:
                        i = tgt[(s1 - 1, a1, b2)]
                        ent[(i, j)] = ring.poly_add(ent.get((i, j), {}), p)
                sgn = -1 if s1 % 2 else 1
                for (a2, bb2), p in other.diff_entries(s2).items():
                    if bb2 == b2 and (s1, b1, a2) in tgt:
                        i = tgt[(s1, b1, a2)]
                        q = ring.poly_scale(p, sgn)
                        ent[(i, j)] = ring.poly_add(ent.get((i, j), {}), q)
            ent = {k: p for k, p in ent.items() if p}
            if ent:
                diffs[s] = ent
        return FreeComplex(ring, stages, diffs)

    def dual(self) -> "FreeComplex":
        """Hom into the ring: stage s -> -s, transposed entries, sign (-1)^s."""
        ring = self.ring
        stages = {-s: FreeModule(ring, [-d for d in f.gen_degrees],
                                 [f"{l}^" for l in f.labels])
                  for s, f in self.stages.items()}
        diffs: Dict[int, Dict[Tuple[int, int], Poly]] = {}
        for s, d in self.diffs.items():
            # original d: stage s -> s-1; dual: stage -(s-1) -> -s
            ent = {}
            for (a, b), p in d.items():
                q = ring.poly_scale(p, -1) if s % 2 else p
                ent[(b, a)] = q
            if ent:
                diffs[-(s - 1)] = ent
        return FreeComplex(ring, stages, diffs)

    def realize(self, mod: Optional[GradedModule], w: Window,
                validate: bool = True) -> WindowedComplex:
        """Tensor with a module (the ring when None), realized over w."""
        if mod is None:
            mod = GradedModule.free_module(self.ring, [0], name="R")
        max_gd = max((max(f.gen_degrees) for f in self.stages.values()),
                     default=0)
        X = module_complex(mod, Window(w.t_lo - max(0, max_gd),
                                       max(w.t_hi, mod.top_degree)))
        out, _ = free_tensor(self, X, t_floor=w.t_lo)
        if validate:
            out.validate()
        return out

    def hom_into(self, mod: GradedModule, w: Window,
                 validate: bool = True) -> WindowedComplex:
        """Hom(self, mod) realized degreewise (finite free, so dual @ mod)."""
        return self.dual().realize(mod, w, validate=validate)


# free (x) windowed realization ----------------------------------------------


def complex_element_action(X: WindowedComplex, p: Poly, s: int, t: int,
                           ring: GradedRing) -> SparseMatrix:
    """Multiplication by a homogeneous element on a realized complex, summed
    from X's memoised monomial actions; a monomial whose generator actions do
    not compose, or land in the wrong dimension, is skipped."""
    fld = ring.field
    if not p:
        return SparseMatrix._trusted(fld, 0, X.dim(s, t), {})
    dp = ring.poly_degree(p)
    out = SparseMatrix._trusted(fld, X.dim(s, t + dp), X.dim(s, t), {})
    for mono, c in p.items():
        cur = X.monomial_action(mono, s, t)
        if cur is not None and cur.rows == out.rows:
            out = out.add(cur.scale(c))
    return out


def _by_source(entries: Dict[Tuple[int, int], Poly]) -> Dict[int, List[Tuple[int, Poly]]]:
    """Free-side entries {(target gen, source gen): poly} grouped by source
    generator, keeping their order."""
    out: Dict[int, List[Tuple[int, Poly]]] = {}
    for (a, b), q in entries.items():
        out.setdefault(b, []).append((a, q))
    return out


def _positions(layout) -> Dict[BiDeg, Dict[Tuple[int, int], Tuple[int, int]]]:
    """(stage, gen) -> (offset, block dim) in each bidegree of a layout."""
    return {key: {(sigma, b): (off, d) for sigma, b, off, d in parts}
            for key, parts in layout.items()}


def free_tensor(F: FreeComplex, X: WindowedComplex,
                t_floor: Optional[int] = None):
    """F tensor X for F free; returns (complex, layout).

    layout[(s, t)] is a list of (stage sigma, gen index b, offset, block dim)
    for each nonzero bidegree.  The valid floor is X's floor plus the largest
    free generator degree.
    """
    ring = F.ring
    fld = ring.field
    max_gd = max((max(f.gen_degrees, default=0) for f in F.stages.values()),
                 default=0)
    lo = max(t_floor if t_floor is not None else -10 ** 9,
             X.window.t_lo + max(0, max_gd))
    t_top = X.t_top + F.top_internal()
    if lo > t_top:
        lo = t_top
    s_lo = F.s_min + X.s_min
    s_hi = F.s_max + X.s_max
    gens = [(sigma, b, gd) for sigma in range(F.s_min, F.s_max + 1)
            for b, gd in enumerate(F.stage(sigma).gen_degrees)]
    layout: Dict[BiDeg, List[Tuple[int, int, int, int]]] = {}
    dims: Dict[BiDeg, int] = {}
    for s in range(s_lo, s_hi + 1):
        for t in range(lo, t_top + 1):
            entries = []
            off = 0
            for sigma, b, gd in gens:
                d = X.dims.get((s - sigma, t - gd))
                if d:
                    entries.append((sigma, b, off, d))
                    off += d
            if off:
                layout[(s, t)] = entries
                dims[(s, t)] = off
    char = ring.characteristic
    positions = _positions(layout)
    free_diffs = {sigma: _by_source(F.diff_entries(sigma)) for sigma in F.stages}
    diffs: Dict[BiDeg, SparseMatrix] = {}
    actions: Dict[Tuple[int, int, int], SparseMatrix] = {}
    for (s, t), parts in layout.items():
        tpos = positions.get((s - 1, t))
        if tpos is not None:
            ent: Dict[Tuple[int, int], int] = {}
            for sigma, b, off, d in parts:
                gd = F.stages[sigma].gen_degrees[b]
                # free-side differential
                for a, q in free_diffs[sigma].get(b, ()):
                    key = (sigma - 1, a)
                    if key not in tpos:
                        continue
                    toff, td = tpos[key]
                    act = complex_element_action(X, q, s - sigma, t - gd, ring)
                    for (r, c), v in act.entries.items():
                        k = (toff + r, off + c)
                        ent[k] = (ent.get(k, 0) + v) % char
                # inner differential with homological sign
                key = (sigma, b)
                dx = X.diffs.get((s - sigma, t - gd))
                if dx is not None and key in tpos:
                    toff, td = tpos[key]
                    sgn = -1 if sigma % 2 else 1
                    for (r, c), v in dx.entries.items():
                        k = (toff + r, off + c)
                        ent[k] = (ent.get(k, 0) + sgn * v) % char
            ent = {k: v for k, v in ent.items() if v}
            if ent:
                diffs[(s, t)] = SparseMatrix._trusted(
                    fld, dims.get((s - 1, t), 0), dims.get((s, t), 0), ent)
        for g, gen in enumerate(ring.generators):
            tpos = positions.get((s, t + gen.degree))
            if tpos is None:
                continue
            ent = {}
            for sigma, b, off, d in parts:
                act = X.actions.get((g, s - sigma, t - F.stages[sigma].gen_degrees[b]))
                if act is None or (sigma, b) not in tpos:
                    continue
                toff, td = tpos[(sigma, b)]
                for (r, c), v in act.entries.items():
                    ent[(toff + r, off + c)] = v
            if ent:
                actions[(g, s, t)] = SparseMatrix._trusted(
                    fld, dims.get((s, t + gen.degree), 0), dims.get((s, t), 0), ent)
    C = WindowedComplex(ring, dims, diffs, actions, s_lo, s_hi, t_top,
                        Window(lo, max(lo, t_top)), flags=dict(X.flags))
    return C, layout


def free_tensor_map(Fsrc: FreeComplex, Ftgt: FreeComplex,
                    comps: Dict[int, Dict[Tuple[int, int], Poly]],
                    X: WindowedComplex, Cs: WindowedComplex, Ls,
                    Ct: WindowedComplex, Lt) -> ComplexMap:
    """Realize a free-side chain map against a fixed second factor."""
    ring = Fsrc.ring
    char = ring.characteristic
    positions = _positions(Lt)
    by_source = {sigma: _by_source(c) for sigma, c in comps.items()}
    out: Dict[BiDeg, SparseMatrix] = {}
    for (s, t), parts in Ls.items():
        tpos = positions.get((s, t))
        if tpos is None:
            continue
        ent: Dict[Tuple[int, int], int] = {}
        for sigma, b, off, d in parts:
            gd = Fsrc.stage(sigma).gen_degrees[b]
            for a, q in by_source.get(sigma, {}).get(b, ()):
                key = (sigma, a)
                if key not in tpos:
                    continue
                toff, td = tpos[key]
                act = complex_element_action(X, q, s - sigma, t - gd, ring)
                for (r, c), v in act.entries.items():
                    k = (toff + r, off + c)
                    ent[k] = (ent.get(k, 0) + v) % char
        ent = {k: v for k, v in ent.items() if v}
        if ent:
            out[(s, t)] = SparseMatrix._trusted(ring.field, Ct.dim(s, t),
                                                Cs.dim(s, t), ent)
    return ComplexMap(Cs, Ct, out)


def projection_to_unit(F: FreeComplex, C: WindowedComplex, L,
                       X: WindowedComplex, unit_stage: int = 0) -> ComplexMap:
    """Project F tensor X onto the block of F's degree-0 rank-1 unit generator."""
    ring = F.ring
    f0 = F.stage(unit_stage)
    unit_idx = next(i for i, d in enumerate(f0.gen_degrees) if d == 0)
    out: Dict[BiDeg, SparseMatrix] = {}
    for (s, t), parts in L.items():
        for sigma, b, off, d in parts:
            if sigma == unit_stage and b == unit_idx:
                ent = {(r, off + r): 1 for r in range(d)}
                out[(s - unit_stage, t)] = SparseMatrix(
                    ring.field, X.dim(s - unit_stage, t), C.dim(s, t), ent)
    return ComplexMap(C, X, out)


def inclusion_of_unit(F: FreeComplex, C: WindowedComplex, L,
                      X: WindowedComplex, unit_stage: int = 0) -> ComplexMap:
    """Include X as the unit-generator block of F tensor X."""
    ring = F.ring
    f0 = F.stage(unit_stage)
    unit_idx = next(i for i, d in enumerate(f0.gen_degrees) if d == 0)
    out: Dict[BiDeg, SparseMatrix] = {}
    for (s, t), parts in L.items():
        for sigma, b, off, d in parts:
            if sigma == unit_stage and b == unit_idx:
                ent = {(off + r, r): 1 for r in range(d)}
                out[(s - unit_stage, t)] = SparseMatrix(
                    ring.field, C.dim(s, t), X.dim(s - unit_stage, t), ent)
    return ComplexMap(X, C, out)


def resolution_complex(res, w: Window) -> FreeComplex:
    """View a minimal free resolution as a FreeComplex in degrees 0..length."""
    stages = {i: f for i, f in enumerate(res.stages)}
    diffs = {i + 1: d for i, d in enumerate(res.diffs)}
    return FreeComplex(res.ring, stages, diffs)
