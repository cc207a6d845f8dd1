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
bidegree (s, t), differentials lowering s by one, and ring-generator action
matrices.  Homological degree s is bounded on both sides; internal degree t
vanishes above a known top and is only known down to the window floor.
The differentials are built with the complex; each generator action is
built when it is first read (free_tensor, cone, shift, module_slice and
duality.brown_comenetz give a builder, not a dict), since most readers ask
for a few of them and homology for none.  A complex cut below its top
carries no actions.
Monomial actions on a windowed complex are memoised on it, each built from
the action of its prefix, or for a pure power from pieces that start or end
at aligned block boundaries; a Koszul tower ages the memo of its input stage
by stage and clears it when the tower is built, so the memo does not live as
long as the tower's result.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from .exactla import (ContractViolation, SparseMatrix, kernel_rows,
                      quotient_projection, rank)
from .graded import FreeModule, GradedModule, GradedRing, Mono, Poly, Window

BiDeg = Tuple[int, int]
# an action not yet built (None is a built zero)
_UNBUILT = object()


# the length, in steps of a generator's degree, of the aligned blocks that
# split its pure powers (see _power_split)
BLOCK = 16


def _power_split(d: int, k: int, t: int) -> int:
    """The power j of the first factor when x^k from degree t, for x of
    degree d and k >= 2, is built as x^(k - j) after x^j.

    A degree is a boundary when it is a multiple of BLOCK * d.  A power
    that starts at a boundary grows as a prefix (j = k - 1), and so does one
    that meets no boundary; one whose first boundary is its end grows as a
    suffix (j = 1); one that crosses a boundary splits at the first
    (0 < j < k).  The pieces are then powers that start or end at a
    boundary, shared by every start degree in the block and by every power.
    """
    if t % d:
        return k - 1
    r = -(t // d) % BLOCK
    if r == 0:
        return k - 1
    if r == k:
        return 1
    return r if r < k else k - 1


class WindowedComplex:
    """Degreewise realized complex over a graded ring.

    dims[(s, t)] gives the k-dimension; diffs[(s, t)] maps (s, t) -> (s-1, t);
    the action of generator g from (s, t) maps (s, t) -> (s, t + deg_g).
    Values at t outside the window are unknown, except above t_top, where
    they are genuinely zero.

    The actions are given either as a dict {(g, s, t): matrix} or as a
    builder (g, s, t) -> matrix or None, asked only at nonzero bidegrees
    (s, t).  action and nonzero_action build a matrix on its first read and
    memoise it; the actions view builds every one that is left.  A complex
    cut below its top is given no actions.
    """

    def __init__(self, ring: GradedRing, dims: Dict[BiDeg, int],
                 diffs: Dict[BiDeg, SparseMatrix],
                 actions: Union[Dict[Tuple[int, int, int], SparseMatrix],
                                Callable[[int, int, int], Optional[SparseMatrix]]],
                 s_min: int, s_max: int, t_top: int, window: Window):
        self.ring = ring
        self.dims = {k: v for k, v in dims.items() if v}
        self.diffs = {k: m for k, m in diffs.items() if m.entries}
        # the builder, None once every action is in _actions; a built zero
        # is kept as None
        self._build = actions if callable(actions) else None
        self._actions: Dict[Tuple[int, int, int], Optional[SparseMatrix]] = \
            {} if self._build else {k: m for k, m in actions.items() if m.entries}
        self.s_min = s_min
        self.s_max = s_max
        self.t_top = t_top
        self.window = window
        self._hspaces: Dict[BiDeg, Tuple] = {}
        # monomial actions of the current and of the previous age
        self._monomials: Dict[Tuple[Mono, int, int], Optional[SparseMatrix]] = {}
        self._monomials_old: Dict[Tuple[Mono, int, int], Optional[SparseMatrix]] = {}

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
        key = (g, s, t)
        m = self._actions.get(key, _UNBUILT)
        if m is _UNBUILT:
            if self._build is None or (s, t) not in self.dims:
                return None
            m = self._build(g, s, t)
            if m is not None and not m.entries:
                m = None
            self._actions[key] = m
        return m

    def action(self, g: int, s: int, t: int) -> SparseMatrix:
        m = self.nonzero_action(g, s, t)
        if m is None:
            dg = self.ring.generators[g].degree
            m = SparseMatrix._trusted(self.ring.field, self.dim(s, t + dg),
                                      self.dim(s, t), {})
        return m

    @property
    def actions(self) -> Dict[Tuple[int, int, int], SparseMatrix]:
        """Every nonzero action, keyed (g, s, t) in sorted (s, t), then g
        order; the ones not read yet are built now, and the builder is
        dropped."""
        if self._build is not None:
            built = {}
            for s, t in sorted(self.dims):
                for g in range(len(self.ring.generators)):
                    m = self.nonzero_action(g, s, t)
                    if m is not None:
                        built[(g, s, t)] = m
            self._build, self._actions = None, built
        return self._actions

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
        """Multiplication by a monomial from (s, t), or None when it is zero
        or the generator actions along the way do not compose.

        The generators are applied in index order, so the action of mono is
        the action of its last generator after the action of the prefix.  A
        pure power x^k of one generator is split at the aligned blocks of
        _power_split instead, so that its pieces are shared by every start
        degree and by every power.  Each result is memoised, and one used in
        the previous age is kept.  A zero piece makes the product zero, so
        zero is kept as None.
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
            k = mono[last]
            j = k - 1
            if k > 1 and not any(mono[:last]):
                dg = self.ring.generators[last].degree
                j = _power_split(dg, k, t)
                if j < k - 1:
                    first = self.monomial_action(
                        mono[:last] + (j,) + mono[last + 1:], s, t)
                    if first is not None and first.rows != self.dim(s, t + j * dg):
                        # stored actions that disagree with the dimension at
                        # the split: the prefix chain decides whether they
                        # compose
                        j = k - 1
            if j == k - 1:
                rest = mono[:last] + (j,) + mono[last + 1:]
                a = self.nonzero_action(last, s, t + self.ring.mono_degree(rest))
                if a is None:
                    m = None
                elif any(rest):
                    m = self.monomial_action(rest, s, t)
                    m = a @ m if m is not None and a.cols == m.rows else None
                else:
                    # a after the identity is a itself
                    m = a if a.cols == self.dim(s, t) else None
            elif first is None:
                m = None
            else:
                # x^(k - j) from the degree x^j reaches, after x^j
                top = self.monomial_action(
                    mono[:last] + (k - j,) + mono[last + 1:], s, t + j * dg)
                m = top @ first if top is not None and top.cols == first.rows \
                    else None
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


def module_slice(ring: GradedRing, dims: Dict[int, int],
                 action: Callable[[int, int], SparseMatrix], w: Window,
                 t_top: int) -> WindowedComplex:
    """A module known degreewise on w as a complex concentrated in
    homological degree 0.

    dims[t] is the dimension in degree t, for t in w; action(g, t) is the
    matrix of generator g from degree t, asked only where both degrees are
    nonzero, and only when the complex's action is first read.  Every
    module on a window is kept this way, so its monomial actions come from
    the complex's memo and its dual from brown_comenetz.  For a presented
    module (module_complex) the action is GradedModule.generator_action,
    read off the module's Groebner staircase one lookup per column; every
    Tor, Ext, resolution-duality table and tower input realizes its
    module's actions here.
    """
    dims = {t: d for t, d in dims.items() if d}
    gens = ring.generators

    def build(g: int, s: int, t: int) -> Optional[SparseMatrix]:
        return action(g, t) if t + gens[g].degree in dims else None

    return WindowedComplex(ring, {(0, t): d for t, d in dims.items()}, {},
                           build, 0, 0, t_top, w)


def module_complex(mod: GradedModule, w: Window) -> WindowedComplex:
    """A module viewed as a complex concentrated in homological degree 0."""
    dims = {t: mod.dim_in_degree(t) for t in w.t_range()}
    return module_slice(mod.ring, dims, mod.generator_action, w,
                        mod.top_degree)


def shift(c: WindowedComplex, s_shift: int, t_shift: int = 0) -> WindowedComplex:
    """Suspension: shift(c)_{s,t} = c_{s - s_shift, t - t_shift}, sign
    (-1)^s_shift on the differentials; each action is c's, read when the
    shifted one is first read."""
    sgn = c.ring.field.neg(1) if s_shift % 2 else 1
    dims = {(s + s_shift, t + t_shift): v for (s, t), v in c.dims.items()}
    diffs = {(s + s_shift, t + t_shift): (m.scale(sgn) if s_shift % 2 else m)
             for (s, t), m in c.diffs.items()}

    def build(g: int, s: int, t: int) -> Optional[SparseMatrix]:
        return c.nonzero_action(g, s - s_shift, t - t_shift)

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
    gens = ring.generators

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

    def build(g: int, s: int, t: int) -> Optional[SparseMatrix]:
        # the two blocks of an action do not overlap
        if not inside(s, t):
            return None
        aA = A.nonzero_action(g, s - 1, t)
        aB = B.nonzero_action(g, s, t)
        if aA is None and aB is None:
            return None
        t2 = t + gens[g].degree
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
    it is unknown, not zero, and it carries no generator actions.
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
    gens = ring.generators

    def build(g: int, s: int, t: int) -> Optional[SparseMatrix]:
        # block (sigma, b) of the action is X's action from the bidegree
        # that block comes from
        tpos = positions.get((s, t + gens[g].degree))
        if tpos is None:
            return None
        ent: Dict[Tuple[int, int], int] = {}
        for sigma, b, off, d in layout[(s, t)]:
            pos = tpos.get((sigma, b))
            if pos is None:
                continue
            act = X.nonzero_action(g, s - sigma, t - F.stages[sigma].gen_degrees[b])
            if act is None:
                continue
            toff = pos[0]
            ent.update({(toff + r, off + c): v
                        for (r, c), v in act.entries.items()})
        if not ent:
            return None
        return SparseMatrix._trusted(fld, dims[(s, t + gens[g].degree)],
                                     dims[(s, t)], ent)

    C = WindowedComplex(ring, dims, diffs, build if hi == t_top else {},
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
