"""Windowed chain complexes of graded modules.

Two representations cooperate here.  FreeComplex is a bounded complex of
finite free modules with ring-element differentials; its one structural
operation is the dual.  free_tensor realizes F (x) X for a free complex F
and any windowed complex X, and is the only tensor product: realizing
against a module tensors with the module viewed as a complex, so Tor(M, N)
and Ext(M, N) are the homology of resolution (x) N and of Hom(resolution, N)
= dual (x) N for a free resolution of M.  A product of two free complexes is
nested instead, F (x) (G (x) X), and Koszul complexes multiply by
concatenating their elements.
WindowedComplex is the generic degreewise form: one k-vector space per
bidegree (s, t), differentials lowering s by one, and monomial action
matrices.  Homological degree s is bounded on both sides; internal degree t
vanishes above a known top and is only known down to the window floor.
The differentials are built with the complex; each monomial action is
built when it is first read and memoised on the complex, since most readers
ask for a few of them and homology for none.  Each complex builds x^a from
its parts: a module off its Groebner staircase, F (x) X from X's own x^a in
every block, a cone from its two sides, a shift and a dual from the complex
they come from.  Only actions given per generator are chained, in index
order (generator_chain).  The actions of its parts that a builder reads
are kept in the memo of the complex being read, not in the parts' own
(part_action), and a Koszul tower clears its input's memo when it is
built, so the input's memo does not live as long as the tower's result.
A complex cut below its top carries no actions.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from .exactla import (ContractViolation, SparseMatrix, kernel_rows,
                      quotient_projection, rank)
from .graded import FreeModule, GradedModule, GradedRing, Mono, Poly, Window

BiDeg = Tuple[int, int]
# an action not yet built (None is a built zero)
_UNBUILT = object()


class WindowedComplex:
    """Degreewise realized complex over a graded ring.

    dims[(s, t)] gives the k-dimension; diffs[(s, t)] maps (s, t) -> (s-1, t);
    the action of a monomial x^a from (s, t) maps (s, t) -> (s, t + |a|).
    Values at t outside the window are unknown, except above t_top, where
    they are genuinely zero.

    The actions are given as a monomial builder (mono, s, t, kept) ->
    matrix or None, asked only for a nonzero monomial at a nonzero bidegree
    (s, t), which reads the actions of the complexes it is made from with
    part_action(..., kept); or as a dict {(g, s, t): matrix} of generator
    actions, whose monomials generator_chain builds.  monomial_action
    builds a matrix on its first read and memoises it, with the parts'
    actions its builder read; clear_monomial_actions drops both.  A
    generator's action is the action of its unit monomial, and the actions
    view builds every generator action.  A complex cut below its top is
    given None: it has no actions.
    """

    def __init__(self, ring: GradedRing, dims: Dict[BiDeg, int],
                 diffs: Dict[BiDeg, SparseMatrix],
                 actions: Union[None, Dict[Tuple[int, int, int], SparseMatrix],
                                Callable[[Mono, int, int, Dict],
                                         Optional[SparseMatrix]]],
                 s_min: int, s_max: int, t_top: int, window: Window):
        self.ring = ring
        self.dims = {k: v for k, v in dims.items() if v}
        self.diffs = {k: m for k, m in diffs.items() if m.entries}
        self._build = actions
        if isinstance(actions, dict):
            gens = {k: m for k, m in actions.items() if m.entries}

            def chain(mono: Mono, s: int, t: int,
                      kept: Dict) -> Optional[SparseMatrix]:
                return generator_chain(
                    self, lambda g, s, t: gens.get((g, s, t)), mono, s, t)
            self._build = chain
        self.s_min = s_min
        self.s_max = s_max
        self.t_top = t_top
        self.window = window
        self._hspaces: Dict[BiDeg, Tuple] = {}
        # monomial actions built so far; a built zero is kept as None
        self._monomials: Dict[Tuple[Mono, int, int], Optional[SparseMatrix]] = {}
        # the actions of its parts that its builder read, keyed
        # (id(part), mono, s, t); the builder keeps every part alive
        self._parts: Dict[Tuple[int, Mono, int, int], Optional[SparseMatrix]] = {}

    def dim(self, s: int, t: int) -> int:
        return self.dims.get((s, t), 0)

    def diff(self, s: int, t: int) -> SparseMatrix:
        m = self.diffs.get((s, t))
        if m is None:
            m = SparseMatrix._trusted(self.ring.field, self.dim(s - 1, t),
                                      self.dim(s, t), {})
        return m

    def nonzero_action(self, g: int, s: int, t: int) -> Optional[SparseMatrix]:
        """The action of generator g from (s, t), built on its first read,
        or None when it is zero."""
        return self.monomial_action(
            tuple(int(i == g) for i in range(self.ring.n)), s, t)

    def action(self, g: int, s: int, t: int) -> SparseMatrix:
        m = self.nonzero_action(g, s, t)
        if m is None:
            dg = self.ring.generators[g].degree
            m = SparseMatrix._trusted(self.ring.field, self.dim(s, t + dg),
                                      self.dim(s, t), {})
        return m

    @property
    def actions(self) -> Dict[Tuple[int, int, int], SparseMatrix]:
        """Every nonzero generator action, keyed (g, s, t) in sorted (s, t),
        then g order; the ones not read yet are built now."""
        built = {}
        for s, t in sorted(self.dims):
            for g in range(self.ring.n):
                m = self.nonzero_action(g, s, t)
                if m is not None:
                    built[(g, s, t)] = m
        return built

    def hspace(self, s: int, t: int):
        """homology_space(self, s, t), computed once per bidegree; a zero
        bidegree has zero homology, returned without an elimination."""
        h = self._hspaces.get((s, t))
        if h is None:
            if (s, t) not in self.dims:
                z = SparseMatrix._trusted(self.ring.field, 0, 0, {})
                return z, z, z, []
            h = self._hspaces[(s, t)] = homology_space(self, s, t)
        return h

    def monomial_action(self, mono: Mono, s: int, t: int) -> Optional[SparseMatrix]:
        """Multiplication by a monomial from (s, t), built on its first read
        and memoised, or None when it is zero or, for generator actions
        given as a dict, the factors do not compose."""
        key = (mono, s, t)
        m = self._monomials.get(key, _UNBUILT)
        if m is _UNBUILT:
            if (s, t) not in self.dims:
                return None
            m = self._monomials[key] = self._built(mono, s, t, self._parts)
        return m

    def part_action(self, mono: Mono, s: int, t: int,
                    kept: Dict) -> Optional[SparseMatrix]:
        """monomial_action for the builder of a complex made from this one:
        the memoised matrix when there is one, else the one kept in kept,
        the reading complex's memo of its parts, where it is built on its
        first read.  This memo is left as it was."""
        m = self._monomials.get((mono, s, t), _UNBUILT)
        if m is _UNBUILT:
            key = (id(self), mono, s, t)
            m = kept.get(key, _UNBUILT)
            if m is _UNBUILT:
                m = kept[key] = self._built(mono, s, t, kept) \
                    if (s, t) in self.dims else None
        return m

    def _built(self, mono: Mono, s: int, t: int,
               kept: Dict) -> Optional[SparseMatrix]:
        """The action of mono from the nonzero bidegree (s, t), built now;
        the parts it reads are kept in kept."""
        if not any(mono):
            return SparseMatrix.identity(self.ring.field, self.dims[(s, t)])
        m = None if self._build is None else self._build(mono, s, t, kept)
        return m if m is not None and m.entries else None

    def clear_monomial_actions(self):
        """Drop every memoised monomial action, and those of its parts."""
        self._monomials, self._parts = {}, {}

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
                 comps: Dict[BiDeg, SparseMatrix]):
        self.source = source
        self.target = target
        self.comps = {k: m for k, m in comps.items() if m.entries}

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


def generator_chain(c: WindowedComplex,
                    gen: Callable[[int, int, int], Optional[SparseMatrix]],
                    mono: Mono, s: int, t: int) -> Optional[SparseMatrix]:
    """x^mono from (s, t) on c, for actions given per generator by
    gen(g, s, t) -> matrix or None: the action of its last generator after
    c's memoised action of the prefix, so the generators apply in index
    order.  None when a factor is zero or the factors do not compose."""
    last = max(i for i, e in enumerate(mono) if e)
    rest = mono[:last] + (mono[last] - 1,) + mono[last + 1:]
    a = gen(last, s, t + c.ring.mono_degree(rest))
    if a is None:
        return None
    if not any(rest):
        return a if a.cols == c.dim(s, t) else None
    m = c.monomial_action(rest, s, t)
    return a @ m if m is not None and a.cols == m.rows else None


def module_slice(ring: GradedRing, dims: Dict[int, int],
                 action: Callable[[Mono, int], Optional[SparseMatrix]],
                 w: Window, t_top: int) -> WindowedComplex:
    """A module known degreewise on w as a complex concentrated in
    homological degree 0.

    dims[t] is the dimension in degree t, for t in w; action(mono, t) is
    the matrix of the monomial from degree t, asked only where both degrees
    are nonzero, and only when the complex's action is first read.  Every
    module on a window is kept this way, so its monomial actions come from
    the complex's memo and its dual from brown_comenetz.  For a presented
    module (module_complex) the action is GradedModule.element_action of
    the monomial, read off the module's Groebner staircase one lookup per
    column; every Tor, Ext, resolution-duality table and tower input
    realizes its module's actions here.
    """
    dims = {t: d for t, d in dims.items() if d}

    def build(mono: Mono, s: int, t: int,
              kept: Dict) -> Optional[SparseMatrix]:
        return action(mono, t) if t + ring.mono_degree(mono) in dims else None

    return WindowedComplex(ring, {(0, t): d for t, d in dims.items()}, {},
                           build, 0, 0, t_top, w)


def module_complex(mod: GradedModule, w: Window) -> WindowedComplex:
    """A module viewed as a complex concentrated in homological degree 0."""
    dims = {t: mod.dim_in_degree(t) for t in w.t_range()}
    return module_slice(mod.ring, dims,
                        lambda mono, t: mod.element_action({mono: 1}, t), w,
                        mod.top_degree)


def shift(c: WindowedComplex, s_shift: int, t_shift: int = 0) -> WindowedComplex:
    """Suspension: shift(c)_{s,t} = c_{s - s_shift, t - t_shift}, sign
    (-1)^s_shift on the differentials; each action is c's, read when the
    shifted one is first read."""
    sgn = c.ring.field.neg(1) if s_shift % 2 else 1
    dims = {(s + s_shift, t + t_shift): v for (s, t), v in c.dims.items()}
    diffs = {(s + s_shift, t + t_shift): (m.scale(sgn) if s_shift % 2 else m)
             for (s, t), m in c.diffs.items()}

    def build(mono: Mono, s: int, t: int,
              kept: Dict) -> Optional[SparseMatrix]:
        return c.part_action(mono, s - s_shift, t - t_shift, kept)

    w = Window(c.window.t_lo + t_shift, c.window.t_hi + t_shift,
               c.window.s_lo, c.window.s_hi)
    return WindowedComplex(c.ring, dims, diffs, build,
                           c.s_min + s_shift, c.s_max + s_shift,
                           c.t_top + t_shift, w)


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
    s_lo = min(A.s_min + 1, B.s_min)
    s_hi = max(A.s_max + 1, B.s_max)
    adim, bdim = A.dims, B.dims

    def inside(s: int, t: int) -> bool:
        return s_lo <= s <= s_hi and w.t_lo <= t <= top

    # each block of d starts at a nonzero bidegree of A or B, so only the
    # support of the cone is visited
    for s, t in sorted(dims):
        if not inside(s, t):
            continue
        da, db = adim.get((s - 1, t), 0), bdim.get((s, t), 0)
        ta, tb = adim.get((s - 2, t), 0), bdim.get((s - 1, t), 0)
        # every entry is an engine entry or its negative, and the three
        # blocks of d do not overlap
        ent: Dict[Tuple[int, int], int] = {}
        dA = A.diffs.get((s - 1, t))
        if dA is not None:
            for (i, j), v in dA.entries.items():
                ent[(i, j)] = fld.neg(v)
        fm = f.comps.get((s - 1, t))
        if fm is not None:
            for (i, j), v in fm.entries.items():
                ent[(ta + i, j)] = v
        dB = B.diffs.get((s, t))
        if dB is not None:
            for (i, j), v in dB.entries.items():
                ent[(ta + i, da + j)] = v
        if ent:
            diffs[(s, t)] = SparseMatrix._trusted(fld, ta + tb, da + db, ent)

    def build(mono: Mono, s: int, t: int,
              kept: Dict) -> Optional[SparseMatrix]:
        # a generator acts from the region the differentials cover, and x^a
        # from where each of its factors, applied in index order, does:
        # degrees are negative, so the last factor's source is the lowest.
        # The two blocks of an action do not overlap
        t2 = t + ring.mono_degree(mono)
        last = max(i for i, e in enumerate(mono) if e)
        if not (inside(s, t) and inside(s, t2 - ring.generators[last].degree)):
            return None
        aA = A.part_action(mono, s - 1, t, kept)
        aB = B.part_action(mono, s, t, kept)
        if aA is None and aB is None:
            return None
        da, da2 = adim.get((s - 1, t), 0), adim.get((s - 1, t2), 0)
        aent: Dict[Tuple[int, int], int] = {}
        if aA is not None:
            aent.update(aA.entries)
        if aB is not None:
            for (i, j), v in aB.entries.items():
                aent[(da2 + i, da + j)] = v
        return SparseMatrix._trusted(
            fld, da2 + bdim.get((s, t2), 0), da + bdim.get((s, t), 0), aent)

    return WindowedComplex(ring, dims, diffs, build, s_lo, s_hi, top, w)


def direct_sum(a: WindowedComplex, b: WindowedComplex) -> WindowedComplex:
    zero = ComplexMap(shift(a, -1), b, {})
    out = cone(zero)
    return out


# homology ------------------------------------------------------------------


def _inclusion(fld, cols: int, free: List[int]) -> SparseMatrix:
    """The section e_i -> e_free[i] of a quotient projection with complement
    basis free; quotient_projection's matrix is the identity on it."""
    return SparseMatrix._trusted(fld, cols, len(free),
                                 {(c, i): 1 for i, c in enumerate(free)})


def _cycle_coordinates(d: SparseMatrix, z: SparseMatrix, free: List[int],
                       what: str) -> SparseMatrix:
    """Coordinates of the columns of z, cycles of d, in the kernel basis of d
    whose vector j is 1 at free[j] and 0 at the other free columns: rows
    free of z.  Raises ContractViolation(what) when d z != 0."""
    if (d @ z).entries:
        raise ContractViolation(what)
    pos = {c: i for i, c in enumerate(free)}
    return SparseMatrix._trusted(z.field, len(free), z.cols,
                                 {(pos[r], c): v for (r, c), v in z.entries.items()
                                  if r in pos})


def homology_space(c: WindowedComplex, s: int, t: int):
    """(K, P, sec, free) for H_{s,t}: the columns of K are a cycle basis,
    column j being 1 at free[j] and 0 at the other columns in free, P
    projects cycle coordinates onto homology coordinates, and sec is a
    section of P, the inclusion of the complement basis on which P is the
    identity."""
    fld = c.ring.field
    d = c.diff(s, t)
    k, free = kernel_rows(d)
    K = k.transpose()
    # image of d_in expressed in cycle coordinates
    span = _cycle_coordinates(d, c.diff(s + 1, t), free,
                              "boundary not a cycle").transpose()
    P, hfree = quotient_projection(span)
    return K, P, _inclusion(fld, K.cols, hfree), free


def homology(c: WindowedComplex, w: Optional[Window] = None) -> Dict[BiDeg, int]:
    """dim H_{s,t} over known bidegrees (only fully determined ones reported).

    dim H_{s,t} = dim - rank d_{s,t} - rank d_{s+1,t}; each differential is
    ranked once, for both bidegrees it touches, and a bidegree with no
    differential has rank 0 with no elimination."""
    w = w or c.window
    out: Dict[BiDeg, int] = {}
    ranks: Dict[BiDeg, int] = {}

    def rank_at(s: int, t: int) -> int:
        r = ranks.get((s, t))
        if r is None:
            m = c.diffs.get((s, t))
            r = ranks[(s, t)] = 0 if m is None else rank(m)
        return r

    for s in range(c.s_min, c.s_max + 1):
        for t in range(max(w.t_lo, c.window.t_lo), min(w.t_hi, c.window.t_hi) + 1):
            d = c.dim(s, t)
            if d == 0:
                continue
            h = d - rank_at(s, t) - rank_at(s + 1, t)
            if h:
                out[(s, t)] = h
    return out


def induced_on_homology(source: WindowedComplex, target: WindowedComplex,
                        s: int, t: int, t2: int,
                        chain: Callable[[], SparseMatrix]) -> SparseMatrix:
    """Map H_{s,t}(source) -> H_{s,t2}(target) induced by a chain-level map.

    chain() returns the matrix source_{s,t} -> target_{s,t2}; it is built
    only when both homology spaces are nonzero.  The map descends to
    homology, so pushing the section's cycle representatives through it and
    projecting gives the induced matrix whichever section is used.
    """
    Ks, Ps, sec, _ = source.hspace(s, t)
    _, Pt, _, free = target.hspace(s, t2)
    if Ps.rows == 0 or Pt.rows == 0:
        return SparseMatrix(source.ring.field, Pt.rows, Ps.rows)
    x = _cycle_coordinates(target.diff(s, t2), chain() @ (Ks @ sec), free,
                           "map does not preserve cycles")
    return Pt @ x


# free complexes ------------------------------------------------------------


class FreeComplex:
    """Bounded complex of finite free modules with ring-entry differentials.

    stages[s] is a FreeModule; diffs[s] maps stage s to stage s-1, stored as
    {(target_gen, source_gen): poly}.  Strictly R-linear differentials;
    free_tensor gives the second factor the homological-parity Koszul sign
    (differential entries of odd internal parity must not meet across tensor
    factors, which the d^2 = 0 validation at realization enforces).
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

    def realize(self, mod: Union[GradedModule, WindowedComplex, None],
                w: Window, validate: bool = True) -> WindowedComplex:
        """Tensor with a module (the ring when None) or with a windowed
        complex, realized over w."""
        if mod is None:
            mod = GradedModule.free_module(self.ring, [0], name="R")
        X = mod
        if isinstance(mod, GradedModule):
            X = module_complex(mod, Window(w.t_lo - max(0, self.top_internal()),
                                           max(w.t_hi, mod.top_degree)))
        out, _ = free_tensor(self, X, t_floor=w.t_lo)
        if validate:
            out.validate()
        return out

    def hom_into(self, mod: Union[GradedModule, WindowedComplex], w: Window,
                 validate: bool = True) -> WindowedComplex:
        """Hom(self, mod) realized degreewise (finite free, so dual @ mod)."""
        return self.dual().realize(mod, w, validate=validate)


# free (x) windowed realization ----------------------------------------------


def complex_element_action(X: WindowedComplex, p: Poly, s: int,
                           t: int) -> SparseMatrix:
    """Multiplication by a homogeneous element on a realized complex, summed
    from X's memoised monomial actions; a monomial whose generator actions do
    not compose, or land in the wrong dimension, is skipped.  A one-term
    element is its monomial's action, scaled, with no sum."""
    ring = X.ring
    fld = ring.field
    cols = X.dim(s, t)
    if not p:
        return SparseMatrix._trusted(fld, 0, cols, {})
    if len(p) == 1:
        (mono, c), = p.items()
        rows = X.dim(s, t + ring.mono_degree(mono))
        cur = X.monomial_action(mono, s, t)
        if cur is not None and cur.rows == rows:
            return cur.scale(c)
        return SparseMatrix._trusted(fld, rows, cols, {})
    out = SparseMatrix._trusted(fld, X.dim(s, t + ring.poly_degree(p)), cols, {})
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


def _free_blocks(F: FreeComplex,
                 by_source: Dict[int, Dict[int, List[Tuple[int, Poly]]]],
                 X: WindowedComplex, parts, tpos, s: int, t: int,
                 shift: int) -> Dict[Tuple[int, int], int]:
    """The free-side blocks of a map out of bidegree (s, t) of F tensor X.

    parts is the layout of (s, t) and tpos the positions of the target
    bidegree; by_source[sigma][b] lists the entries (a, q) of source
    generator b of stage sigma.  Source block (sigma, b) writes the target
    blocks (sigma + shift, a), one per a, each the action of q on X from
    (s - sigma, t - deg b).  No two blocks overlap, so each is copied as it
    is.
    """
    ent: Dict[Tuple[int, int], int] = {}
    for sigma, b, off, _ in parts:
        gd = F.stages[sigma].gen_degrees[b]
        for a, q in by_source.get(sigma, {}).get(b, ()):
            pos = tpos.get((sigma + shift, a))
            if pos is None:
                continue
            toff = pos[0]
            act = complex_element_action(X, q, s - sigma, t - gd)
            ent.update({(toff + r, off + c): v
                        for (r, c), v in act.entries.items()})
    return ent


def free_tensor(F: FreeComplex, X: WindowedComplex, t_floor: int,
                t_ceil: Optional[int] = None):
    """F tensor X for F free, realized from t_floor up to t_ceil (to the top
    when None); returns (complex, layout).

    layout[(s, t)] is a list of (stage sigma, gen index b, offset, block dim)
    for each nonzero bidegree.  The valid floor is X's floor plus the largest
    free generator degree, raised to t_floor.  A complex cut below its top
    is read for its homology only: its window ends at the cut, above which
    it is unknown, not zero, and it carries no actions.
    """
    ring = F.ring
    fld = ring.field
    max_gd = max((max(f.gen_degrees, default=0) for f in F.stages.values()),
                 default=0)
    lo = max(t_floor, X.window.t_lo + max(0, max_gd))
    t_top = X.t_top + F.top_internal()
    if lo > t_top:
        lo = t_top
    hi = t_top if t_ceil is None else max(lo, min(t_ceil, t_top))
    s_lo = F.s_min + X.s_min
    s_hi = F.s_max + X.s_max
    gens = [(sigma, b, gd) for sigma in sorted(F.stages)
            for b, gd in enumerate(F.stages[sigma].gen_degrees)]
    # each nonzero bidegree of X lands once per free generator; the blocks
    # of a bidegree are laid out in generator order
    blocks: Dict[BiDeg, List[Tuple[int, int]]] = {}
    for (xs, xt), d in X.dims.items():
        for i, (sigma, b, gd) in enumerate(gens):
            s, t = xs + sigma, xt + gd
            if lo <= t <= hi and s_lo <= s <= s_hi:
                blocks.setdefault((s, t), []).append((i, d))
    layout: Dict[BiDeg, List[Tuple[int, int, int, int]]] = {}
    dims: Dict[BiDeg, int] = {}
    for key in sorted(blocks):
        entries = []
        off = 0
        for i, d in sorted(blocks[key]):
            sigma, b, _ = gens[i]
            entries.append((sigma, b, off, d))
            off += d
        layout[key] = entries
        dims[key] = off
    char = ring.characteristic
    positions = _positions(layout)
    free_diffs = {sigma: _by_source(F.diff_entries(sigma)) for sigma in F.stages}
    diffs: Dict[BiDeg, SparseMatrix] = {}
    for (s, t), parts in layout.items():
        tpos = positions.get((s - 1, t))
        if tpos is not None:
            # the free-side differential writes the blocks (sigma - 1, a) of
            # source block (sigma, b), and the inner differential its own
            # (sigma, b): no entry is written twice
            ent = _free_blocks(F, free_diffs, X, parts, tpos, s, t, -1)
            for sigma, b, off, d in parts:
                # inner differential with homological sign
                dx = X.diffs.get((s - sigma, t - F.stages[sigma].gen_degrees[b]))
                pos = tpos.get((sigma, b))
                if dx is not None and pos is not None:
                    toff = pos[0]
                    if sigma % 2:
                        dx = dx.scale(char - 1)
                    ent.update({(toff + r, off + c): v
                                for (r, c), v in dx.entries.items()})
            if ent:
                diffs[(s, t)] = SparseMatrix._trusted(
                    fld, dims.get((s - 1, t), 0), dims.get((s, t), 0), ent)

    def build(mono: Mono, s: int, t: int,
              kept: Dict) -> Optional[SparseMatrix]:
        # block (sigma, b) of the action is X's action from the bidegree
        # that block comes from
        t2 = t + ring.mono_degree(mono)
        tpos = positions.get((s, t2))
        if tpos is None:
            return None
        ent: Dict[Tuple[int, int], int] = {}
        for sigma, b, off, d in layout[(s, t)]:
            pos = tpos.get((sigma, b))
            if pos is None:
                continue
            act = X.part_action(mono, s - sigma,
                                t - F.stages[sigma].gen_degrees[b], kept)
            if act is None:
                continue
            toff = pos[0]
            ent.update({(toff + r, off + c): v
                        for (r, c), v in act.entries.items()})
        if not ent:
            return None
        return SparseMatrix._trusted(fld, dims[(s, t2)], dims[(s, t)], ent)

    C = WindowedComplex(ring, dims, diffs, build if hi == t_top else None,
                        s_lo, s_hi, t_top, Window(lo, hi))
    return C, layout


def free_tensor_map(Fsrc: FreeComplex,
                    comps: Dict[int, Dict[Tuple[int, int], Poly]],
                    X: WindowedComplex, Cs: WindowedComplex, Ls,
                    Ct: WindowedComplex, Lt) -> ComplexMap:
    """Realize a free-side chain map against a fixed second factor.

    comps[sigma] maps stage sigma of Fsrc to stage sigma of the target free
    complex, as {(target gen, source gen): poly}; Cs and Ct are the two
    realizations with their layouts Ls and Lt.  A factor that is X itself
    has the layout {(s, t): [(0, 0, 0, dim)]} of the unit free complex.
    """
    positions = _positions(Lt)
    by_source = {sigma: _by_source(c) for sigma, c in comps.items()}
    out: Dict[BiDeg, SparseMatrix] = {}
    for (s, t), parts in Ls.items():
        tpos = positions.get((s, t))
        if tpos is None:
            continue
        ent = _free_blocks(Fsrc, by_source, X, parts, tpos, s, t, 0)
        if ent:
            out[(s, t)] = SparseMatrix._trusted(X.ring.field, Ct.dim(s, t),
                                                Cs.dim(s, t), ent)
    return ComplexMap(Cs, Ct, out)


def resolution_complex(res) -> FreeComplex:
    """View a minimal free resolution as a FreeComplex in degrees 0..length."""
    stages = {i: f for i, f in enumerate(res.stages)}
    diffs = {i + 1: d for i, d in enumerate(res.diffs)}
    return FreeComplex(res.ring, stages, diffs)
