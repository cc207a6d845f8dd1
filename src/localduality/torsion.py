"""Koszul towers and the local duality quadruple (torsion, localization,
completion, cotorsion) with the Tate construction and fracture checks.

The torsion functor is realized as the directed colimit of duals of Koszul
objects tensored with the input; the completion functor as the inverse limit
of the Koszul tower itself.  Stage s of either tower depends on no other
stage, so a functor builds only the stages it reads.

At the ideal of the ring's even generators one stage is proven exact for a
module, and for a complex with a registered shape: a finite filtration whose
subquotients are shifted copies of one module (_SHAPES; _materialize, the
model stages, the cones of localize_away and delta and the Hom complex of
adjunction_check register theirs).  With F the minimal free resolution of
the module over the polynomial ring P on those generators, stage s gives
H_b at degree t once s reaches s*(b, t), read off the generator degrees of
two terms of F and the shape's pieces (_stage_floor).  Gamma and Lambda of
a module, or of a complex of one piece, then build the single stage
min(s_max, s*), and flag exactly the bidegrees where it falls short of
s*(b, t); a complex of several pieces gets the single stage s* when that is
at most s_max, flagged only below the stage's valid floor.  Lambda of a
proven Gamma model of a module m (_GAMMA_MODELS) builds m's own Lambda
stage: Kos(x^s) (x) L m is acyclic, so the model's stage s is Kos(x^s) (x) m
wherever the model is exact for Gamma m in the degrees the stage reads.

Everywhere else (a complex of several pieces whose s* passes s_max; a
complex with no registered shape; an odd generator in the ideal; other
ideals) the tail rule applies: a bidegree is declared stable when the last
three tower maps induce isomorphisms on homology there, up to the stage cap
s_max, and only stages max(1, s_max - 3) .. s_max and the maps between them
are built.  Every stage below the model stage s_max is realized only on the
degrees certification reads, t from the window's floor to its top, with no
generator actions when that cuts it below its own top.  Uncertified
bidegrees are flagged, never silently reported.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .exactla import ContractViolation, SparseMatrix, rank
from .graded import (FreeModule, GradedModule, GradedRing, HomIdeal, Poly,
                     Window, minimal_free_resolution)
from .complexes import (BiDeg, ComplexMap, FreeComplex, WindowedComplex,
                        complex_element_action, cone, free_tensor,
                        free_tensor_map, homology, induced_on_homology,
                        module_complex, resolution_complex, shift)


@dataclass
class Tower:
    """Consecutive stages of a Koszul tower: stages[i] is stage first + i
    (the power of the Koszul object), the last one the model; maps[i] joins
    stages[i] and stages[i + 1], and unit joins the model and the input.
    direction "colim": maps go stage s -> s+1 and unit to the input; "lim":
    reversed.  The proven stage is one stage and no map; the tail rule's
    tail is stages max(1, s_max - CONSEC) .. s_max.  Only the model is
    realized in full; the others, and the maps, only up to the window's
    top, and a stage cut there carries no generator actions."""

    stages: List[WindowedComplex]
    maps: List[ComplexMap]
    direction: str
    unit: ComplexMap


@dataclass
class FunctorResult:
    """A functor value: chain model, homotopy table, and provenance.

    The table and flags cover the window.  Callers also read the model
    above it (the Koszul object of p tensored with a cone over it, the Tate
    cone, the fracture square), so a proven stage is chosen to be exact at
    every t from the window's floor up to w.t_hi plus the Koszul reach, the
    sum of the weights of the ideal's generators.  Provenance "stage" is
    the stage the model is: the proven stage, or s_max under the tail rule.
    The model of a shaped input is registered with its own shape, the
    Koszul generators times the input's pieces, so a second functor applied
    to it, or to a cone over it, reads its stage floor too; a proven Gamma
    model of a module is also registered with its ceiling, and Lambda of it
    reads the module's own stage floor."""

    model: WindowedComplex
    homotopy: Dict[BiDeg, int]
    flags: Set[BiDeg]
    provenance: Dict
    to_input: Optional[ComplexMap] = None      # e.g. Gamma m -> m
    from_input: Optional[ComplexMap] = None    # e.g. m -> Lambda m

    def table(self) -> Dict[BiDeg, int]:
        return dict(self.homotopy)


# Koszul free complexes -----------------------------------------------------


def _subset_sign(subset: Tuple[int, ...], j: int) -> int:
    return -1 if sum(1 for i in subset if i < j) % 2 else 1


def koszul_free(ring: GradedRing, elems: Sequence[Poly], power: int = 1) -> FreeComplex:
    """Koszul object R//(a_1^s, ..., a_n^s) as a free complex.

    Generator e_S sits in homological degree |S| and internal degree
    s * sum of |a_i| over i in S; d(e_S) = sum over j in S of +-a_j^s e_{S-j}.
    """
    degs = []
    for a in elems:
        if not a:
            raise ContractViolation("zero element in Koszul construction")
        ring._check_homogeneous(a)
        degs.append(ring.poly_degree(a))
    n = len(elems)
    powers = []
    for a in elems:
        p = ring.one()
        for _ in range(power):
            p = ring.poly_mul(p, a)
        powers.append(p)
    subsets: Dict[int, List[Tuple[int, ...]]] = {}
    for sz in range(n + 1):
        subsets[sz] = sorted(itertools.combinations(range(n), sz))
    stages: Dict[int, FreeModule] = {}
    index: Dict[int, Dict[Tuple[int, ...], int]] = {}
    for sz, subs in subsets.items():
        gd = [power * sum(degs[i] for i in S) for S in subs]
        labels = ["e" + "".join(str(i) for i in S) if S else "e" for S in subs]
        stages[sz] = FreeModule(ring, gd, labels)
        index[sz] = {S: k for k, S in enumerate(subs)}
    diffs: Dict[int, Dict[Tuple[int, int], Poly]] = {}
    for sz in range(1, n + 1):
        ent: Dict[Tuple[int, int], Poly] = {}
        for S, k in index[sz].items():
            for j in S:
                T = tuple(i for i in S if i != j)
                sgn = _subset_sign(T, j)
                q = ring.poly_scale(powers[j], sgn)
                ent[(index[sz - 1][T], k)] = q
        diffs[sz] = ent
    return FreeComplex(ring, stages, diffs)


def dual_koszul_free(ring: GradedRing, elems: Sequence[Poly],
                     power: int = 1) -> FreeComplex:
    return koszul_free(ring, elems, power).dual()


def _subset_chain_map(ring: GradedRing, elems: Sequence[Poly], dual: bool
                      ) -> Dict[int, Dict[Tuple[int, int], Poly]]:
    """The (product-of-elements, identity) map between consecutive Koszul
    stages: e_S goes to (prod over S of a_i) e'_S; stage indices are |S|
    (or -|S| on duals)."""
    n = len(elems)
    comps: Dict[int, Dict[Tuple[int, int], Poly]] = {}
    subsets: Dict[int, List[Tuple[int, ...]]] = {
        sz: sorted(itertools.combinations(range(n), sz)) for sz in range(n + 1)}
    for sz, subs in subsets.items():
        stage = -sz if dual else sz
        ent: Dict[Tuple[int, int], Poly] = {}
        for k, S in enumerate(subs):
            q = ring.one()
            for i in S:
                q = ring.poly_mul(q, elems[i])
            if q:
                ent[(k, k)] = q
        if ent:
            comps[stage] = ent
    return comps


def koszul_object(m, elems: Sequence, w: Window) -> WindowedComplex:
    """M // (a_1, ..., a_n): tensor of M with the Koszul free complex."""
    ring = m.ring
    polys = [ring.parse(a) if isinstance(a, str) else dict(a) for a in elems]
    F = koszul_free(ring, polys) if polys else FreeComplex.unit(ring)
    C, _ = free_tensor(F, _materialize(m, w, w.t_lo), t_floor=w.t_lo)
    return C


# towers with stabilization -------------------------------------------------


# consecutive isomorphisms that certify a bidegree, tower maps or steps of
# telescope_invert; the tower builds only the stages these maps join
CONSEC = 3

# length of the resolution adjunction_check compares from degree 2 - it up
ADJUNCTION_LENGTH = 5


def _homology_tower(stages: List[WindowedComplex], maps: List[ComplexMap],
                    direction: str, w: Window):
    """Stabilized values of a homology tower per bidegree in the window.

    Returns (table, flags).  Certification works from the tail of the
    tower: a bidegree is stable when the last CONSEC maps induce
    isomorphisms on homology there (value = last-stage dimension), or
    certified zero when the composite of the tail maps vanishes (nilpotence,
    sound in both directions).  Anything else is flagged and reported with
    the last-stage value.  Only t in w is read, of every stage and map.
    """
    table: Dict[BiDeg, int] = {}
    flags: Set[BiDeg] = set()
    s_lo = min(c.s_min for c in stages)
    s_hi = max(c.s_max for c in stages)

    def hdim(i, key):
        return stages[i].hspace(*key)[1].rows

    last = len(stages) - 1
    tail = min(CONSEC, len(maps))
    # where every stage the tail reads is zero, every induced map is 0 x 0:
    # an isomorphism, so such a bidegree is stable when the tail is long
    # enough to certify and flagged otherwise
    support = set().union(*(c.dims for c in stages[last - tail:]))
    for sh in range(s_lo, s_hi + 1):
        for t in w.t_range():
            key = (sh, t)
            if key not in support:
                if tail < CONSEC:
                    flags.add(key)
                continue
            end_dim = hdim(last, key)
            if not maps:
                flags.add(key)
                if end_dim:
                    table[key] = end_dim
                continue
            all_iso = True
            composite = None
            for step in range(tail):
                i = len(maps) - 1 - step
                src_i, tgt_i = (i, i + 1) if direction == "colim" else (i + 1, i)
                ind = induced_on_homology(
                    stages[src_i], stages[tgt_i], sh, t, t,
                    lambda: maps[i].comp(sh, t))
                if ind.rows != ind.cols or (ind.cols and rank(ind) != ind.cols):
                    all_iso = False
                if composite is None:
                    composite = ind
                else:
                    # extend the composite one stage further from the tower
                    composite = (composite @ ind) if direction == "colim" \
                        else (ind @ composite)
            tail_dims = {hdim(i, key) for i in range(last - tail, last + 1)}
            # a constant-rank tail whose composite vanishes: classes die at a
            # steady rate, so nothing survives, certified zero.  (A growing
            # tail with zero composite is just an unstabilized wave front and
            # is flagged.)
            dies = not composite.entries and len(tail_dims) == 1
            if tail >= CONSEC and (all_iso or dies):
                value = end_dim if all_iso else 0
            else:
                flags.add(key)
                value = end_dim
            if value:
                table[key] = value
    return table, flags


def _ideal_data(p: HomIdeal):
    return p.gens, sum(-p.ring.poly_degree(g) for g in p.gens)


# complex -> (m, pieces): the complex has a finite filtration whose
# subquotients are the shifted copies Sigma^j m(d) of the one module m, one
# (j, d) in pieces for each (with repeats); Sigma^j shifts the homological
# degree by j and m(d)_t = m_(t - d).  The stage floor reads it.
_SHAPES: "weakref.WeakKeyDictionary[WindowedComplex, Tuple[GradedModule, Tuple[BiDeg, ...]]]" = \
    weakref.WeakKeyDictionary()


# proven Gamma model -> (m, ceiling): the model is the proven stage of
# Gamma of the module m, and its homology is H(Gamma m) at every t from its
# window's floor up to the ceiling.  Lambda of the model reads m's own stage
# floor (_tower_functor).
_GAMMA_MODELS: "weakref.WeakKeyDictionary[WindowedComplex, Tuple[GradedModule, int]]" = \
    weakref.WeakKeyDictionary()


def _shape(m) -> Optional[Tuple[GradedModule, Tuple[BiDeg, ...]]]:
    """m's module and pieces: a module is its one piece (0, 0); a complex
    has the shape registered for it, or None."""
    if isinstance(m, GradedModule):
        return m, ((0, 0),)
    return _SHAPES.get(m)


def _register_cone(C: WindowedComplex, f: ComplexMap,
                   s_shift: int = 0) -> None:
    """Record the shape of C = cone(f) shifted by s_shift: the target's
    pieces and the source's one degree up.  f joins a functor's model and
    its input, so both have shapes over one module or the input has none."""
    src, tgt = _shape(f.source), _shape(f.target)
    if src is None or tgt is None:
        return
    _SHAPES[C] = (src[0], tuple(sorted(
        [(j + 1 + s_shift, d) for j, d in src[1]] +
        [(j + s_shift, d) for j, d in tgt[1]])))


def _materialize(m, w: Window, floor: int) -> WindowedComplex:
    if isinstance(m, GradedModule):
        top = m.top_degree
        X = module_complex(m, Window(min(floor, top), max(top, w.t_hi)))
        _SHAPES[X] = _shape(m)
        return X
    return m


def default_s_max(w: Window) -> int:
    return w.span + 4


def _stage_floor(functor: str, m, p: HomIdeal,
                 w: Window) -> Optional[Dict[BiDeg, int]]:
    """The least stage s*(b, t) that gives the homology of Gamma ("gamma")
    or Lambda ("completion") of m at the ideal p exactly, for each
    homological degree b of the model and each t from w.t_lo up to w.t_hi
    plus the Koszul reach; None unless m is a module or a complex with a
    registered shape (_SHAPES), and p is generated by exactly the ring's
    even generators.

    Let F be the minimal free resolution of the module over the polynomial
    ring P on those generators (duality._polynomial_resolution), with
    weights w_i and sum W.  Each column of Kos(x^s)^dual (x) F has
    cohomology only in the top Koszul degree, H^N(x^s; F_j), which injects
    into H^N_m(F_j) with the image spanned by the x^-a, 1 <= a_i <= s; on a
    generator of degree d it is onto in degree t once s >= A(t - d), where
    A(u) = max_i floor((u - W + w_i) / w_i) bounds every a_i of degree u
    (Bruns-Herzog 3.5).  A map of complexes injective at every term and
    bijective at terms j and j + 1 is an isomorphism on H_j, so the stage
    gives H^i_m(m)_t, homological degree -i, once
    s >= s*(-i, t) = max(1, A(t - d)) over the generators d of F_{N-i} and
    F_{N-i+1}: the lowest of them decides.  For Lambda, P(d) -> P/(x^s)(d)
    is bijective in degree t once s > floor((d - t) / w_min), and a map
    surjective at every term and bijective at terms i and i - 1 is an
    isomorphism on H_i: s*(i, t) = 1 + max floor((d - t) / w_min) over F_i
    and F_{i-1}, the highest of them deciding, at least 1.  Outside the
    homological degrees where the module's stages live, both sides vanish
    and s* is 1.

    A complex of one piece Sigma^j m(d) is that copy of m, so its s*(b, t)
    is the module's s*(b - j, t - d).  For several pieces, Kos(x^s)^dual
    (x) - and Kos(x^s) (x) - are exact and the comparison of stage s with
    the limit is natural, so the cone of that comparison is filtered by the
    cones on the pieces.  The cone on a piece has no H_c at t once the
    stage is exact for m at (c - j, t - d) and (c - j - 1, t - d), and the
    complex's stage is exact at (b, t) when its cone has no H_b and no
    H_{b+1} at t: s*(b, t) is the largest module s*(a, t - d) over the
    pieces and a in {b - j - 1, b - j, b - j + 1}.  No map between stages
    is read.

    Lambda of a proven Gamma model of a module m is Lambda of m below the
    model's ceiling (_tower_functor), so _tower_functor passes m here, not
    the model, whose Koszul pieces sit up to its stage times W above m and
    would ask for a stage far past s_max."""
    shape = _shape(m)
    ring = p.ring
    even = [ring.gen_poly(i) for i, odd in enumerate(ring.parity) if not odd]
    if shape is None or sorted(sorted(g.items()) for g in p.gens) != \
            sorted(sorted(g.items()) for g in even):
        return None
    mod, pieces = shape
    from .duality import _polynomial_resolution
    res = _polynomial_resolution(mod)
    P = res.ring
    n, weights, top = P.n, P.weights, sum(P.weights)
    colim = functor == "gamma"

    # per homological degree a of the module's stages, the generator degree
    # of the two terms of F that decides s*: the lowest for Gamma, the highest
    # for Lambda
    extreme: Dict[int, int] = {}
    for a in (range(-n, 1) if colim else range(n + 1)):
        degs = [d for j in ((n + a, n + a + 1) if colim else (a, a - 1))
                if 0 <= j < len(res.stages) for d in res.stages[j].gen_degrees]
        if degs:
            extreme[a] = min(degs) if colim else max(degs)

    def module_floor(a: int, u: int) -> int:
        d = extreme.get(a)
        if d is None:
            return 1
        if colim:
            return max([1] + [(u - d - top + wi) // wi for wi in weights])
        return max(1, 1 + (d - u) // min(weights))

    s_lo, s_hi = (0, 0) if isinstance(m, GradedModule) else (m.s_min, m.s_max)
    near = (0,) if len(pieces) == 1 else (-1, 0, 1)
    distinct = set(pieces)
    floor: Dict[BiDeg, int] = {}
    b_range = range(s_lo - n, s_hi + 1) if colim else range(s_lo, s_hi + n + 1)
    for b in b_range:
        for t in range(w.t_lo, w.t_hi + top + 1):
            floor[(b, t)] = max(module_floor(b - j + e, t - d)
                                for j, d in distinct for e in near)
    return floor


def _koszul_tower(functor: str, X: WindowedComplex, p: HomIdeal, w: Window,
                  first: int, last: int) -> Tower:
    """The stages first .. last of the Gamma ("gamma") tower
    dual Kos(p^s) (x) X or the Lambda ("completion") tower Kos(p^s) (x) X
    of the materialized input X, joined by the (product-of-elements,
    identity) map of Koszul objects.  Stages below last are realized on t
    from w.t_lo to w.t_hi only, the degrees _homology_tower reads; one that
    this cuts below its top carries no generator actions, and its window
    ends at w.t_hi (unknown above, not zero).  The maps between stages are
    built on those layouts.  The model stage last is realized in full.  The
    unit map joins the last stage and X, which is R (x) X: it is the
    free-side map between stage 0's one generator, of degree 0, and R's."""
    colim = functor == "gamma"
    koszul = dual_koszul_free if colim else koszul_free
    comps = _subset_chain_map(p.ring, p.gens, dual=colim)
    unit_comps = {0: {(0, 0): p.ring.one()}}
    unit_layout = {key: [(0, 0, 0, d)] for key, d in X.dims.items()}
    # maps[i] joins stages i and i+1, in the tower's direction
    src, tgt = (-2, -1) if colim else (-1, -2)
    stages: List[WindowedComplex] = []
    layouts = []
    frees: List[FreeComplex] = []
    maps: List[ComplexMap] = []
    try:
        for s in range(first, last + 1):
            F = koszul(p.ring, p.gens, s)
            C, L = free_tensor(F, X, w.t_lo, None if s == last else w.t_hi)
            frees.append(F)
            stages.append(C)
            layouts.append(L)
            if s > first:
                maps.append(free_tensor_map(frees[src], comps, X,
                                            stages[src], layouts[src],
                                            stages[tgt], layouts[tgt]))
            # stage s + 1 builds each a^(s+1) from stage s's a^s and reuses
            # the map's products; actions stage s did not use are dropped
            X.age_monomial_actions()
        if colim:
            unit = free_tensor_map(frees[-1], unit_comps, X, stages[-1],
                                   layouts[-1], X, unit_layout)
        else:
            unit = free_tensor_map(FreeComplex.unit(p.ring), unit_comps, X,
                                   X, unit_layout, stages[-1], layouts[-1])
    finally:
        # X outlives the tower as the functor's input
        X.clear_monomial_actions()
    shape = _shape(X)
    if shape is not None:
        # the model's filtration by Koszul degree has the subquotients
        # Sigma^k X(e), one per generator of degree e of F_k
        _SHAPES[stages[-1]] = (shape[0], tuple(sorted(
            (k + j, e + d) for k, f in frees[-1].stages.items()
            for e in f.gen_degrees for j, d in shape[1])))
    return Tower(stages, maps, "colim" if colim else "lim", unit)


def _tower_functor(functor: str, m, p: HomIdeal, w: Window,
                   s_max: Optional[int]) -> FunctorResult:
    """Gamma ("gamma") or Lambda ("completion") as a Koszul tower.

    Gamma is the directed colimit of dual Kos(p^s) (x) m, whose generators
    sit up to s * weight above m, so m is materialized that much deeper;
    Lambda is the inverse limit of Kos(p^s) (x) m.  Where _stage_floor
    proves a stage, the one stage min(s_max, max s*) is built and its
    homology on w is the table, flagged where it falls short of s*(s, t)
    or lies below the stage's valid floor; a complex of several pieces
    takes it only when max s* <= s_max.  Elsewhere the tail of stages up
    to s_max is certified by _homology_tower.

    The proven Gamma model G of a module m is registered with its ceiling
    (_GAMMA_MODELS): G is H(Gamma m) at every t from its window's floor up
    to the last degree before the stage falls short of some s*(b, t).
    Lambda of G takes m's own stage floor, with no tail.  The proof: stage
    s, Kos(x^s) (x) G, reads G at t only in the degrees [t, t + s * W], W
    the total weight, as Kos(x^s) is filtered by the shifted copies of R on
    its generators.  Where G is exact for Gamma m in all of those degrees,
    G -> Gamma m is a quasi-isomorphism there, so at t Kos(x^s) (x) G ~
    Kos(x^s) (x) Gamma m; and Kos(x^s) (x) Gamma m -> Kos(x^s) (x) m is a
    quasi-isomorphism for every s, since Kos(x^s) (x) L m is acyclic
    (Dwyer-Greenlees 2002), compatibly with the units.  So stage s gives
    H(Lambda Gamma m) = H(Lambda m) at (b, t) once s >= s*_m(b, t).  A
    bidegree whose reads pass G's ceiling is flagged, never reported
    unflagged.
    """
    s_max = s_max or default_s_max(w)
    elems, total_weight = _ideal_data(p)
    if not elems:
        # V(0) is the whole spectrum: both functors are the identity
        X = _materialize(m, w, w.t_lo)
        ident = ComplexMap(X, X, {k: SparseMatrix.identity(p.ring.field, d)
                                  for k, d in X.dims.items()})
        return FunctorResult(X, homology(X, w), set(), {
            "functor": functor, "ideal": p.name, "stage": 0},
            to_input=ident, from_input=ident)
    colim = functor == "gamma"
    gamma_model = None if colim else _GAMMA_MODELS.get(m)
    if gamma_model is not None:
        s_star = _stage_floor(functor, gamma_model[0], p, w)
    else:
        s_star = _stage_floor(functor, m, p, w)
        if s_star is not None and len(_shape(m)[1]) > 1 and \
                max(s_star.values()) > s_max:
            # past the cap, a complex of several pieces keeps the tail rule:
            # the stage s_max would flag every bidegree short of s*, where
            # the tail certifies
            s_star = None
    stage = s_max if s_star is None else min(s_max, max(s_star.values()))
    X = _materialize(m, w, w.t_lo - stage * total_weight - 1 if colim
                     else w.t_lo - 1)
    if s_star is None:
        tower = _koszul_tower(functor, X, p, w, max(1, s_max - CONSEC), s_max)
        table, flags = _homology_tower(tower.stages, tower.maps,
                                       tower.direction, w)
    else:
        tower = _koszul_tower(functor, X, p, w, stage, stage)
        model = tower.stages[-1]
        table = homology(model, w)
        flags = {key for key, need in s_star.items()
                 if key[1] <= w.t_hi and stage < need}
        # below the stage's valid floor a complex input was too shallow
        flags |= {(s, t) for s in range(model.s_min, model.s_max + 1)
                  for t in range(w.t_lo, min(model.window.t_lo, w.t_hi + 1))}
        if gamma_model is not None:
            # stage s at t reads the Gamma model up to t + s * total_weight,
            # which must not pass the model's ceiling
            above = gamma_model[1] - stage * total_weight
            flags |= {(s, t) for s in range(model.s_min, model.s_max + 1)
                      for t in range(max(w.t_lo, above + 1), w.t_hi + 1)}
        elif colim and isinstance(m, GradedModule):
            # the model is H(Gamma m) below the lowest degree a stage falls
            # short in; s_star covers t up to w.t_hi + total_weight
            _GAMMA_MODELS[model] = (m, min(
                [t for (_, t), need in s_star.items() if stage < need],
                default=w.t_hi + total_weight + 1) - 1)
    res = FunctorResult(tower.stages[-1], table, flags,
                        {"functor": functor, "ideal": p.name, "stage": stage,
                         "input": X})
    if colim:
        res.to_input = tower.unit
    else:
        res.from_input = tower.unit
    return res


def gamma(m, p: HomIdeal, w: Window,
          s_max: Optional[int] = None) -> FunctorResult:
    """Torsion functor: directed colimit of dual Koszul stages tensored in."""
    return _tower_functor("gamma", m, p, w, s_max)


def completion(m, p: HomIdeal, w: Window,
               s_max: Optional[int] = None) -> FunctorResult:
    """Completion functor: inverse limit of the Koszul tower."""
    return _tower_functor("completion", m, p, w, s_max)


def localize_away(m, p: HomIdeal, w: Window,
                  s_max: Optional[int] = None,
                  gamma_res: Optional[FunctorResult] = None) -> FunctorResult:
    """L_V m = cone(Gamma_V m -> m)."""
    g = gamma_res or gamma(m, p, w, s_max)
    model = cone(g.to_input)
    _register_cone(model, g.to_input)
    table = homology(model, w)
    return FunctorResult(model, table, set(g.flags),
                         {"functor": "localize_away",
                          "ideal": g.provenance.get("ideal"),
                          "stage": g.provenance.get("stage")})


def delta(m, p: HomIdeal, w: Window,
          s_max: Optional[int] = None) -> FunctorResult:
    """Delta^V m = fiber(m -> Lambda^V m) = shift(cone, -1)."""
    lam = completion(m, p, w, s_max)
    model = shift(cone(lam.from_input), -1)
    _register_cone(model, lam.from_input, -1)
    table = homology(model, w)
    return FunctorResult(model, table, set(lam.flags),
                         {"functor": "delta",
                          "ideal": lam.provenance.get("ideal"),
                          "stage": lam.provenance.get("stage")})


def extended_window(w: Window, p: HomIdeal,
                    s_max: int) -> Window:
    """Deepen the floor so a second functor application still covers w."""
    _, tw = _ideal_data(p)
    return Window(w.t_lo - s_max * tw - 1, w.t_hi)


def tate(m, p: HomIdeal, w: Window,
         s_max: Optional[int] = None) -> FunctorResult:
    """Tate construction t = L Lambda.

    Computed as the cofiber of the composite Gamma m -> m -> Lambda m: since
    Gamma Lambda = Gamma, this cone is L Lambda on the nose, and unlike a
    naive composition it never mistakes the (torsion) final tower stage of
    Lambda for the completion itself.
    """
    s_max = s_max or default_s_max(w)
    g = gamma(m, p, w, s_max)
    lam = completion(g.provenance["input"], p, w, s_max)
    model = _tate_model(g, lam)
    return FunctorResult(model, homology(model, w),
                         set(g.flags) | set(lam.flags),
                         {"functor": "tate",
                          "ideal": g.provenance.get("ideal"),
                          "stage": max(g.provenance["stage"],
                                       lam.provenance["stage"])})


def _tate_model(g: FunctorResult, lam: FunctorResult) -> WindowedComplex:
    """cone(Gamma m -> m -> Lambda m); models both L Lambda and Sigma Delta Gamma."""
    comps: Dict[BiDeg, SparseMatrix] = {}
    for (s, t) in g.model.dims:
        c = lam.from_input.comp(s, t) @ g.to_input.comp(s, t)
        if c.entries:
            comps[(s, t)] = c
    return cone(ComplexMap(g.model, lam.model, comps))


def telescope_invert(m: WindowedComplex, u, w: Window) -> FunctorResult:
    """Invert a homogeneous element on windowed homology.

    Follows the multiplication-by-u chain on each homology bidegree down the
    window; a bidegree is stable when CONSEC consecutive steps are
    isomorphisms before leaving the window, certified zero when the composite
    vanishes (nilpotence), flagged otherwise.
    """
    ring = m.ring
    if isinstance(u, str):
        u = ring.parse(u)
    du = ring.poly_degree(u)
    if du is None or du >= 0:
        raise ContractViolation("inverting element must have negative degree")
    table: Dict[BiDeg, int] = {}
    flags: Set[BiDeg] = set()
    for s in range(m.s_min, m.s_max + 1):
        for t in w.t_range():
            d = m.hspace(s, t)[1].rows
            if d == 0:
                continue
            # follow t, t+du, t+2du, ... within the window
            run = 0
            cur = SparseMatrix.identity(ring.field, d)
            tc = t
            verdict = None
            while tc + du >= w.t_lo:
                step = induced_on_homology(
                    m, m, s, tc, tc + du,
                    lambda: complex_element_action(m, u, s, tc))
                cur = step @ cur
                if not cur.entries:
                    verdict = 0
                    break
                da, db = step.cols, step.rows
                if da == db and da > 0 and rank(step) == da:
                    run += 1
                    if run >= CONSEC:
                        verdict = db
                        break
                else:
                    run = 0
                tc += du
            if verdict is None:
                flags.add((s, t))
                verdict = rank(cur)
            if verdict:
                table[(s, t)] = verdict
    return FunctorResult(m, table, flags,
                         {"functor": "telescope_invert",
                          "element": ring.poly_str(u)})


# recollement and acyclicity checks -----------------------------------------


def _tables_equal(a: Dict[BiDeg, int], b: Dict[BiDeg, int], w: Window,
                  excluded: Set[BiDeg]) -> bool:
    keys = {k for k in set(a) | set(b)
            if w.t_lo <= k[1] <= w.t_hi and k not in excluded}
    return all(a.get(k, 0) == b.get(k, 0) for k in keys)


def check_recollement(m, p: HomIdeal, w: Window,
                      s_max: Optional[int] = None) -> Dict[str, object]:
    """Property suite for the local duality quadruple.

    The composite identities are verified through their chain-realizable
    witnesses: a truncated torsion model absorbs a second tower application,
    so e.g. ΛΓ ≃ Λ is certified by acyclicity of Kos(p) ⊗ L-model (which
    makes every completion-tower stage of Γm -> m a quasi-isomorphism)
    rather than by completing the torsion model directly.  The Tate
    identity does complete the torsion model: for a module m at the ideal
    of the even generators, Kos(x^s) (x) L m is acyclic for every s, so Delta
    of the proven Gamma model is m's own proven Lambda stage, with no tail.

    m should be a GradedModule for the adjunction check, which takes m for
    both of its arguments (the first is resolved to a free complex).
    """
    ring = p.ring
    s_max = s_max or default_s_max(w)
    w_ext = extended_window(w, p, s_max)
    g = gamma(m, p, w_ext, s_max)
    X = g.provenance["input"]
    lam = completion(X, p, w_ext, s_max)
    L = localize_away(m, p, w_ext, s_max, gamma_res=g)
    excluded: Set[BiDeg] = set(g.flags) | set(lam.flags)
    report: Dict[str, object] = {"excluded_bidegrees": sorted(excluded)}

    gg = gamma(g.model, p, w, s_max)
    report["gamma_idempotent"] = _tables_equal(gg.homotopy, g.homotopy, w,
                                               excluded | gg.flags)
    ll = localize_away(L.model, p, w, s_max)
    report["localization_idempotent"] = _tables_equal(
        ll.homotopy, L.homotopy, w, excluded | ll.flags)

    # Kos(p) (x) L acyclic <=> every completion stage of Gamma m -> m is a
    # quasi-iso <=> Lambda Gamma = Lambda on tables
    KL, _ = free_tensor(koszul_free(ring, p.gens), L.model, t_floor=w.t_lo)
    report["lambda_gamma_is_lambda"] = not any(homology(KL, w).values())
    # dual Kos(p) (x) Delta acyclic <=> every torsion stage of m -> Lambda m
    # is a quasi-iso <=> Gamma Lambda = Gamma on tables
    dmod = shift(cone(lam.from_input), -1)
    DD, _ = free_tensor(dual_koszul_free(ring, p.gens), dmod, t_floor=w.t_lo)
    report["gamma_lambda_is_gamma"] = not any(homology(DD, w).values())

    # The Tate identity: the composite localization-of-completion equals
    # Sigma Delta Gamma.  The left side is the cone over Gamma m -> Lambda m
    # (never a naive functor composition on truncated models); the right
    # side applies Delta to the Gamma model.  For a module m that model is
    # proven, and Kos(x^s) (x) L m is acyclic for every s, so the model's
    # Lambda stage s is Kos(x^s) (x) m wherever the model is exact in the
    # degrees [t, t + s * tw] the stage reads: Delta builds m's own Lambda
    # stage, with no tail (see _tower_functor).
    tmodel = _tate_model(g, lam)
    ttable = homology(tmodel, w)
    # completing a torsion model needs ceiling room (divisibility reaches
    # upward), dual to gamma needing floor room, so recompute Gamma on a
    # ceiling-extended window before taking its fiber into the completion:
    # its stage s reads the model up to s * tw above the window, s the
    # module's own Lambda stage or, under the tail rule, s_max
    _, tw = _ideal_data(p)
    floor = _stage_floor("completion", m, p, w) \
        if isinstance(m, GradedModule) else None
    s_lam = s_max if floor is None else min(s_max, max(floor.values()))
    w_big = Window(w.t_lo, w.t_hi + s_lam * tw + 1)
    g_big = gamma(m, p, w_big, default_s_max(w_big))
    dg = delta(g_big.model, p, w, s_max)
    sdg_table = homology(shift(dg.model, 1), w)
    sdg_flags = {(s + 1, t) for (s, t) in (dg.flags | g_big.flags)}
    report["lambda_L_is_shift_delta_gamma"] = _tables_equal(
        ttable, sdg_table, w, excluded | sdg_flags)

    # adjunction via free resolution
    report["adjunction"] = adjunction_check(m, m, p, w, s_max) \
        if isinstance(m, GradedModule) else None

    report["fracture"] = fracture_check(m, p, w, s_max, g=g, lam=lam, L=L,
                                        tate_model=tmodel)
    verdicts = [val for key, val in report.items()
                if isinstance(val, bool)]
    report["all"] = all(verdicts) and report["fracture"]["exact"] and \
        (report["adjunction"] is None or report["adjunction"])
    return report


def adjunction_check(m: GradedModule, m2: GradedModule,
                     p: HomIdeal, w: Window,
                     s_max: Optional[int] = None) -> bool:
    """dim pi Hom(Gamma m, m') = dim pi Hom(m, Lambda m') bidegree-wise.

    The left side is the stabilized torsion stage of a free resolution F of
    m: D_s is the dual of the finite free Kos_s, so Hom(D_s (x) F, m') =
    Kos_s (x) Hom(F, m'), the completion tower of Hom(F, m'), and its
    flagged bidegrees are left out; the right side is the stabilized
    completion of m'.  Stages are detected independently, so agreement is
    contentful.
    """
    s_max = s_max or default_s_max(w)
    elems, total_weight = _ideal_data(p)
    res = minimal_free_resolution(m, ADJUNCTION_LENGTH)
    F = resolution_complex(res)

    # the resolution's generator degrees bound how far the windows must
    # extend: dual generators reach up to `deepest` above the module
    deepest = -min((d for f in res.stages for d in f.gen_degrees), default=0)

    hom_w = Window(w.t_lo, w.t_hi + s_max * total_weight + deepest + 1)
    hom = _resolution_hom(F, m2, hom_w)
    # Hom(F, m') is realized to its top, so its completion takes its own
    # proven stage s* even past s_max
    floor = _stage_floor("completion", hom, p, w)
    left = completion(hom, p, w, s_max if floor is None
                      else max(s_max, *floor.values()))

    # right side; the dual resolution generators raise the tensor floor, so
    # complete over a window deep enough that the product still covers w
    lam = completion(m2, p, Window(w.t_lo - deepest - 1, w.t_hi), s_max)
    right = homology(F.hom_into(lam.model, w, validate=False), w)

    safe_s_lo = -(ADJUNCTION_LENGTH - 2)
    keys = {k for k in set(left.homotopy) | set(right)
            if w.t_lo <= k[1] <= w.t_hi and safe_s_lo <= k[0] <= len(elems)
            and k not in left.flags}
    return all(left.homotopy.get(k, 0) == right.get(k, 0) for k in keys)


def _resolution_hom(F: FreeComplex, m2: GradedModule,
                    w: Window) -> WindowedComplex:
    """Hom(F, m') for a free complex F, realized on w, with its shape: one
    piece m'(-e), in homological degree -k, per generator of F_k of degree
    e."""
    hom = F.hom_into(m2, w, validate=False)
    _SHAPES[hom] = (m2, tuple(sorted((-k, -e) for k, f in F.stages.items()
                                     for e in f.gen_degrees)))
    return hom


def fracture_check(m, p: HomIdeal, w: Window,
                   s_max: Optional[int] = None,
                   g: Optional[FunctorResult] = None,
                   lam: Optional[FunctorResult] = None,
                   L: Optional[FunctorResult] = None,
                   tate_model: Optional[WindowedComplex] = None
                   ) -> Dict[str, object]:
    """Mayer-Vietoris exactness of pi m -> pi Lm + pi Lambda m -> pi L Lambda m.

    g, lam, L and tate_model (_tate_model(g, lam)) are built here when the
    caller has none to pass."""
    ring = p.ring
    fld = ring.field
    s_max = s_max or default_s_max(w)
    w_ext = extended_window(w, p, s_max)
    g = g or gamma(m, p, w_ext, s_max)
    X = g.provenance["input"]
    lam = lam or completion(X, p, w_ext, s_max)
    L = L or localize_away(m, p, w_ext, s_max, gamma_res=g)
    G = g.model
    Y = lam.model
    lam_map = lam.from_input            # m -> Lambda m

    LXc = L.model                       # L m = cone(Gamma m -> m)
    T = tate_model or _tate_model(g, lam)   # L Lambda m = cone(Gamma m -> Lambda m)

    # cone functoriality of the square (id_Gamma, lam_map):
    # Lm = cone(G -> X) -> cone(G -> Y) = T
    comps: Dict[BiDeg, SparseMatrix] = {}
    for (s, t) in set(LXc.dims) | set(T.dims):
        ga = G.dim(s - 1, t)
        ent: Dict[Tuple[int, int], int] = {}
        for i in range(ga):
            ent[(i, i)] = 1
        for (i, j), val in lam_map.comp(s, t).entries.items():
            ent[(ga + i, ga + j)] = val
        if ent:
            comps[(s, t)] = SparseMatrix(fld, T.dim(s, t), LXc.dim(s, t), ent)
    Llam = ComplexMap(LXc, T, comps)    # Lm -> L Lambda m

    # inclusion of the target part of a cone
    def b_inclusion(base, con, gmodel):
        comps2 = {}
        for (s, t), dtot in con.dims.items():
            ta = gmodel.dim(s - 1, t)
            d = base.dim(s, t)
            if d:
                comps2[(s, t)] = SparseMatrix(
                    fld, dtot, d, {(ta + i, i): 1 for i in range(d)})
        return ComplexMap(base, con, comps2)

    aL = b_inclusion(X, LXc, G)         # m -> Lm
    aLam = lam_map                      # m -> Lambda m
    bLam = b_inclusion(Y, T, G)         # Lambda m -> L Lambda m

    flags = set(g.flags) | set(lam.flags)
    lo = w.t_lo + max(X.s_max, LXc.s_max, Y.s_max) + 1
    hi = w.t_hi + min(X.s_min, LXc.s_min, Y.s_min)
    results = {"exact": True, "checked_degrees": [], "failures": []}

    def pi_blocks(c, n):
        out = []
        for s in range(c.s_min, c.s_max + 1):
            t = n - s
            if w.t_lo <= t <= w.t_hi + 1 and (s, t) not in flags:
                d = c.hspace(s, t)[1].rows
                if d:
                    out.append(((s, t), d))
        return out

    def assemble(fmaps, src, tgt, n):
        """Block matrix of induced maps on total degree n homology."""
        sblocks = pi_blocks(src, n)
        tblocks = pi_blocks(tgt, n)
        spos, acc = {}, 0
        for key, dd in sblocks:
            spos[key] = (acc, dd)
            acc += dd
        tpos, acc2 = {}, 0
        for key, dd in tblocks:
            tpos[key] = (acc2, dd)
            acc2 += dd
        ent = {}
        for key, (soff, sd) in spos.items():
            if key in tpos:
                ind = induced_on_homology(
                    src, tgt, key[0], key[1], key[1],
                    lambda: fmaps.comp(key[0], key[1]))
                toff, td = tpos[key]
                for (i, j), valx in ind.entries.items():
                    ent[(toff + i, soff + j)] = valx
        return SparseMatrix(fld, acc2, acc, ent), acc, acc2

    prev_coker = None
    for n in range(hi, lo - 1, -1):
        fa, dm, dl = assemble(aL, X, LXc, n)
        fb, _, dlam = assemble(aLam, X, Y, n)
        ga, _, dll = assemble(Llam, LXc, T, n)
        gb, _, _ = assemble(bLam, Y, T, n)
        # f: pi_n m -> pi_n L + pi_n Lambda ; g = (ga, -gb)
        fent = dict(fa.entries)
        for (i, j), valx in fb.entries.items():
            fent[(dl + i, j)] = valx
        f = SparseMatrix(fld, dl + dlam, dm, fent)
        gent = dict(ga.entries)
        for (i, j), valx in gb.entries.items():
            gent[(i, dl + j)] = fld.neg(valx)
        gmat = SparseMatrix(fld, dll, dl + dlam, gent)
        comp = gmat @ f
        rf, rg = rank(f), rank(gmat)
        middle_exact = (not comp.entries) and (rf + rg == dl + dlam)
        coker = dll - rg
        kerf = dm - rf
        connecting_ok = prev_coker is None or prev_coker == kerf
        results["checked_degrees"].append(n)
        if not (middle_exact and connecting_ok):
            results["exact"] = False
            results["failures"].append(
                {"n": n, "middle": middle_exact, "connecting": connecting_ok})
        prev_coker = coker
    return results


def local_to_global_acyclicity(m, primes: Sequence[Tuple[HomIdeal, object]],
                               w: Window) -> Dict[str, object]:
    """Detect windowed acyclicity through the supplied primes.

    primes: list of (prime ideal, inverting element or None).  For each, the
    detector checks acyclicity of m (x) Kos(R;p) after telescope-inverting
    the element; m is declared locally acyclic iff all detectors pass, and
    the verdict is compared against direct windowed acyclicity of m.
    """
    ring = m.ring
    if isinstance(m, GradedModule):
        m = module_complex(m, Window(w.t_lo - max(ring.weights) - 1,
                                     max(w.t_hi, m.top_degree)))
    direct = not any(homology(m, w).values())
    per_prime = []
    all_acyclic = True
    for p, u in primes:
        K = koszul_free(ring, p.gens)
        C, _ = free_tensor(K, m, t_floor=w.t_lo)
        if u is None:
            tab = homology(C, w)
            detected = any(tab.values())
            flags: Set[BiDeg] = set()
        else:
            inv = telescope_invert(C, u, w)
            detected = any(inv.homotopy.values())
            flags = inv.flags
        per_prime.append({"prime": p.name, "nonacyclic": detected,
                          "flagged": sorted(flags)})
        if detected:
            all_acyclic = False
    return {"direct_acyclic": direct, "local_acyclic": all_acyclic,
            "agreement": direct == all_acyclic, "per_prime": per_prime}
