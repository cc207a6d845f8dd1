"""Koszul towers and the local duality quadruple (torsion, localization,
completion, cotorsion) with the Tate construction and fracture checks.

The torsion functor is realized as the directed colimit of duals of Koszul
objects tensored with the input; the completion functor as the inverse limit
of the Koszul tower itself.  Both are computed bidegree by bidegree with
stabilization detection: a bidegree is declared stable when three
consecutive tower maps induce isomorphisms on homology there, up to a hard
stage cap.  Uncertified bidegrees are flagged, never silently reported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .exactla import ContractViolation, SparseMatrix, rank
from .graded import (FreeModule, GradedModule, GradedRing, HomIdeal, Poly,
                     Window, minimal_free_resolution)
from .complexes import (BiDeg, ComplexMap, FreeComplex, WindowedComplex,
                        complex_element_action, cone, free_tensor,
                        free_tensor_map, homology, inclusion_of_unit,
                        induced_on_homology, module_complex,
                        projection_to_unit, resolution_complex, shift)


@dataclass
class SpecSubset:
    """Finite union of closed pieces V(p_1) | ... | V(p_r), normalized to a
    single product ideal: V(p_1) | V(p_2) = V(p_1 * p_2)."""

    closed_pieces: List[HomIdeal]

    def __post_init__(self):
        if not self.closed_pieces:
            raise ContractViolation("empty specialization closed subset spec")
        ring = self.closed_pieces[0].ring
        for p in self.closed_pieces:
            if p.ring is not ring:
                raise ContractViolation("pieces over different rings")

    @classmethod
    def of_ideal(cls, p: HomIdeal) -> "SpecSubset":
        return cls([p])

    @property
    def ring(self) -> GradedRing:
        return self.closed_pieces[0].ring

    @property
    def normalized_ideal(self) -> HomIdeal:
        if len(self.closed_pieces) == 1:
            return self.closed_pieces[0]
        ring = self.ring
        gens = [g for g in self.closed_pieces[0].gens]
        name = self.closed_pieces[0].name
        for p in self.closed_pieces[1:]:
            gens = [ring.poly_mul(a, b) for a in gens for b in p.gens]
            gens = [g for g in gens if g]
            name = f"{name}*{p.name}"
        return HomIdeal(ring, gens, name=name)


@dataclass
class Tower:
    """Stages of realized complexes joined by chain maps.

    direction "colim" means maps go stage s -> s+1; "lim" means s+1 -> s.
    stabilization maps each bidegree to the stage from which three
    consecutive maps are homology isomorphisms, or None when undetected.
    """

    stages: List[WindowedComplex]
    maps: List[ComplexMap]
    direction: str
    stabilization: Dict[BiDeg, Optional[int]] = dc_field(default_factory=dict)


@dataclass
class FunctorResult:
    """A functor value: chain model, homotopy table, and provenance."""

    model: WindowedComplex
    homotopy: Dict[BiDeg, int]
    flags: Set[BiDeg]
    provenance: Dict
    to_input: Optional[ComplexMap] = None      # e.g. Gamma m -> m
    from_input: Optional[ComplexMap] = None    # e.g. m -> Lambda m

    def table(self) -> Dict[BiDeg, int]:
        return dict(self.homotopy)

    def total(self, w: Window) -> Dict[int, int]:
        out: Dict[int, int] = {}
        lo = w.t_lo + self.model.s_max
        hi = w.t_hi + self.model.s_min
        for (s, t), v in self.homotopy.items():
            n = s + t
            if lo <= n <= hi:
                out[n] = out.get(n, 0) + v
        return dict(sorted(out.items()))


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


def koszul_object(m, elems: Sequence, w: Window,
                  ring: Optional[GradedRing] = None) -> WindowedComplex:
    """M // (a_1, ..., a_n): tensor of M with the Koszul free complex."""
    ring = ring or m.ring
    polys = [ring.parse(a) if isinstance(a, str) else dict(a) for a in elems]
    F = koszul_free(ring, polys) if polys else FreeComplex.unit(ring)
    C, _ = free_tensor(F, _materialize(ring, m, w, w.t_lo), t_floor=w.t_lo)
    return C


# towers with stabilization -------------------------------------------------


def _homology_tower(stages: List[WindowedComplex], maps: List[ComplexMap],
                    direction: str, w: Window, consec: int = 3):
    """Stabilized values of a homology tower per bidegree in the window.

    Returns (table, flags, stabilization).  Certification works from the
    tail of the tower: a bidegree is stable when the last `consec` maps
    induce isomorphisms on homology there (value = last-stage dimension),
    or certified zero when the composite of the tail maps vanishes
    (nilpotence, sound in both directions).  Anything else is flagged and
    reported with the last-stage value.
    """
    table: Dict[BiDeg, int] = {}
    flags: Set[BiDeg] = set()
    stab: Dict[BiDeg, Optional[int]] = {}
    s_lo = min(c.s_min for c in stages)
    s_hi = max(c.s_max for c in stages)

    def hdim(i, key):
        return stages[i].hspace(*key)[1].rows

    last = len(stages) - 1
    tail = min(consec, len(maps))
    for sh in range(s_lo, s_hi + 1):
        for t in w.t_range():
            key = (sh, t)
            end_dim = hdim(last, key)
            if not maps:
                stab[key] = None
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
            if all_iso and tail >= consec:
                stab[key] = last - tail
                if end_dim:
                    table[key] = end_dim
            elif composite is not None and not composite.entries \
                    and len(tail_dims) == 1 and tail >= consec:
                # a constant-rank tail whose composite vanishes: classes die
                # at a steady rate, so nothing survives.  (A growing tail
                # with zero composite is just an unstabilized wave front and
                # falls through to the flagged branch.)
                # every class dies along the tail: certified zero
                stab[key] = last - tail
            else:
                stab[key] = None
                flags.add(key)
                if end_dim:
                    table[key] = end_dim
    table = {k: v for k, v in table.items() if v}
    return table, flags, stab


def _ideal(v: Union[SpecSubset, HomIdeal]) -> HomIdeal:
    """The single ideal cutting out v."""
    return v.normalized_ideal if isinstance(v, SpecSubset) else v


def _ideal_data(p: HomIdeal):
    ring = p.ring
    elems = [g for g in p.gens if g]
    weights = [-ring.poly_degree(g) for g in elems]
    return elems, sum(weights)


def _materialize(ring: GradedRing, m, w: Window, floor: int) -> WindowedComplex:
    if isinstance(m, GradedModule):
        top = m.top_degree
        return module_complex(m, Window(min(floor, top), max(top, w.t_hi)))
    return m


def default_s_max(w: Window) -> int:
    return w.span + 4


def _tower_functor(functor: str, m, v: Union[SpecSubset, HomIdeal], w: Window,
                   s_max: Optional[int], keep_tower: bool) -> FunctorResult:
    """Gamma ("gamma") or Lambda ("completion") as a stabilized Koszul tower.

    Gamma is the directed colimit of dual Kos(p^s) (x) m, whose generators
    sit up to s * weight above m, so m is materialized that much deeper;
    Lambda is the inverse limit of Kos(p^s) (x) m.  Consecutive stages are
    joined by the (product-of-elements, identity) map of Koszul objects.
    """
    p = _ideal(v)
    ring = p.ring
    s_max = s_max or default_s_max(w)
    elems, total_weight = _ideal_data(p)
    if not elems:
        # V(0) is the whole spectrum: both functors are the identity
        X = _materialize(ring, m, w, w.t_lo)
        ident = ComplexMap(X, X, {k: SparseMatrix.identity(ring.field, d)
                                  for k, d in X.dims.items()})
        return FunctorResult(X, homology(X, w), set(), {
            "functor": functor, "ideal": p.name, "stage": 0},
            to_input=ident, from_input=ident)
    colim = functor == "gamma"
    floor = w.t_lo - s_max * total_weight - 1 if colim else w.t_lo - 1
    X = _materialize(ring, m, w, floor)
    koszul = dual_koszul_free if colim else koszul_free
    comps = _subset_chain_map(ring, elems, dual=colim)
    # maps[i] joins stages i and i+1, in the tower's direction
    src, tgt = (-2, -1) if colim else (-1, -2)
    stages: List[WindowedComplex] = []
    layouts = []
    frees: List[FreeComplex] = []
    maps: List[ComplexMap] = []
    try:
        for s in range(1, s_max + 1):
            F = koszul(ring, elems, s)
            C, L = free_tensor(F, X, t_floor=w.t_lo)
            frees.append(F)
            stages.append(C)
            layouts.append(L)
            if s > 1:
                maps.append(free_tensor_map(frees[src], frees[tgt], comps, X,
                                            stages[src], layouts[src],
                                            stages[tgt], layouts[tgt]))
            # stage s + 1 builds each a^(s+1) from stage s's a^s and reuses
            # the map's products; actions stage s did not use are dropped
            X.age_monomial_actions()
    finally:
        X.clear_monomial_actions()
    direction = "colim" if colim else "lim"
    table, flags, stab = _homology_tower(stages, maps, direction, w)
    model = stages[-1]
    res = FunctorResult(model, table, flags,
                        {"functor": functor, "ideal": p.name, "stage": s_max})
    if colim:
        res.to_input = projection_to_unit(frees[-1], model, layouts[-1], X)
    else:
        res.from_input = inclusion_of_unit(frees[-1], model, layouts[-1], X)
    if keep_tower:
        res.provenance["tower"] = Tower(stages, maps, direction, stab)
    res.provenance["input"] = X
    return res


def gamma(m, v: Union[SpecSubset, HomIdeal], w: Window,
          s_max: Optional[int] = None, keep_tower: bool = False) -> FunctorResult:
    """Torsion functor: directed colimit of dual Koszul stages tensored in."""
    return _tower_functor("gamma", m, v, w, s_max, keep_tower)


def completion(m, v: Union[SpecSubset, HomIdeal], w: Window,
               s_max: Optional[int] = None, keep_tower: bool = False) -> FunctorResult:
    """Completion functor: inverse limit of the Koszul tower."""
    return _tower_functor("completion", m, v, w, s_max, keep_tower)


def localize_away(m, v: Union[SpecSubset, HomIdeal], w: Window,
                  s_max: Optional[int] = None,
                  gamma_res: Optional[FunctorResult] = None) -> FunctorResult:
    """L_V m = cone(Gamma_V m -> m)."""
    g = gamma_res or gamma(m, v, w, s_max)
    model = cone(g.to_input)
    table = homology(model, w)
    return FunctorResult(model, table, set(g.flags),
                         {"functor": "localize_away",
                          "ideal": g.provenance.get("ideal"),
                          "stage": g.provenance.get("stage")})


def delta(m, v: Union[SpecSubset, HomIdeal], w: Window,
          s_max: Optional[int] = None,
          completion_res: Optional[FunctorResult] = None) -> FunctorResult:
    """Delta^V m = fiber(m -> Lambda^V m) = shift(cone, -1)."""
    lam = completion_res or completion(m, v, w, s_max)
    model = shift(cone(lam.from_input), -1)
    table = homology(model, w)
    return FunctorResult(model, table, set(lam.flags),
                         {"functor": "delta",
                          "ideal": lam.provenance.get("ideal"),
                          "stage": lam.provenance.get("stage")})


def extended_window(w: Window, v: Union[SpecSubset, HomIdeal],
                    s_max: int) -> Window:
    """Deepen the floor so a second functor application still covers w."""
    _, tw = _ideal_data(_ideal(v))
    return Window(w.t_lo - s_max * tw - 1, w.t_hi)


def tate(m, v: Union[SpecSubset, HomIdeal], w: Window,
         s_max: Optional[int] = None) -> FunctorResult:
    """Tate construction t = L Lambda.

    Computed as the cofiber of the composite Gamma m -> m -> Lambda m: since
    Gamma Lambda = Gamma, this cone is L Lambda on the nose, and unlike a
    naive composition it never mistakes the (torsion) final tower stage of
    Lambda for the completion itself.
    """
    s_max = s_max or default_s_max(w)
    g = gamma(m, v, w, s_max)
    lam = completion(g.provenance["input"], v, w, s_max)
    model = _tate_model(g, lam)
    return FunctorResult(model, homology(model, w),
                         set(g.flags) | set(lam.flags),
                         {"functor": "tate",
                          "ideal": g.provenance.get("ideal"),
                          "stage": s_max})


def _tate_model(g: FunctorResult, lam: FunctorResult) -> WindowedComplex:
    """cone(Gamma m -> m -> Lambda m); models both L Lambda and Sigma Delta Gamma."""
    comps: Dict[BiDeg, SparseMatrix] = {}
    for (s, t) in g.model.dims:
        c = lam.from_input.comp(s, t) @ g.to_input.comp(s, t)
        if c.entries:
            comps[(s, t)] = c
    return cone(ComplexMap(g.model, lam.model, comps))


def telescope_invert(m, u, w: Window, ring: Optional[GradedRing] = None,
                     consec: int = 3) -> FunctorResult:
    """Invert a homogeneous element on windowed homology.

    Follows the multiplication-by-u chain on each homology bidegree down the
    window; a bidegree is stable when `consec` consecutive steps are
    isomorphisms before leaving the window, certified zero when the composite
    vanishes (nilpotence), flagged otherwise.
    """
    if isinstance(m, GradedModule):
        ring = m.ring
        m = module_complex(m, w)
    elif ring is None:
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
                    lambda: complex_element_action(m, u, s, tc, ring))
                cur = step @ cur
                if not cur.entries:
                    verdict = 0
                    break
                da, db = step.cols, step.rows
                if da == db and da > 0 and rank(step) == da:
                    run += 1
                    if run >= consec:
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


def check_recollement(m, v: Union[SpecSubset, HomIdeal], w: Window,
                      s_max: Optional[int] = None,
                      adjunction_module=None,
                      resolution_length: int = 5) -> Dict[str, object]:
    """Property suite for the local duality quadruple.

    The composite identities are verified through their chain-realizable
    witnesses: a truncated torsion model absorbs a second tower application,
    so e.g. ΛΓ ≃ Λ is certified by acyclicity of Kos(p) ⊗ L-model (which
    makes every completion-tower stage of Γm -> m a quasi-isomorphism)
    rather than by completing the torsion model directly.

    m should be a GradedModule for the adjunction check (it is resolved to a
    free complex); adjunction_module supplies the second argument m' and
    defaults to m.
    """
    p = _ideal(v)
    ring = p.ring
    s_max = s_max or default_s_max(w)
    w_ext = extended_window(w, v, s_max)
    g = gamma(m, v, w_ext, s_max)
    X = g.provenance["input"]
    lam = completion(X, v, w_ext, s_max)
    L = localize_away(m, v, w_ext, s_max, gamma_res=g)
    excluded: Set[BiDeg] = set(g.flags) | set(lam.flags)
    report: Dict[str, object] = {"excluded_bidegrees": sorted(excluded)}

    gg = gamma(g.model, v, w, s_max)
    report["gamma_idempotent"] = _tables_equal(gg.homotopy, g.homotopy, w,
                                               excluded | gg.flags)
    ll = localize_away(L.model, v, w, s_max)
    report["localization_idempotent"] = _tables_equal(
        ll.homotopy, L.homotopy, w, excluded | ll.flags)

    elems = [q for q in p.gens if q]
    # Kos(p) (x) L acyclic <=> every completion stage of Gamma m -> m is a
    # quasi-iso <=> Lambda Gamma = Lambda on tables
    KL, _ = free_tensor(koszul_free(ring, elems), L.model, t_floor=w.t_lo)
    report["lambda_gamma_is_lambda"] = not any(homology(KL, w).values())
    # dual Kos(p) (x) Delta acyclic <=> every torsion stage of m -> Lambda m
    # is a quasi-iso <=> Gamma Lambda = Gamma on tables
    dmod = shift(cone(lam.from_input), -1)
    DD, _ = free_tensor(dual_koszul_free(ring, elems), dmod, t_floor=w.t_lo)
    report["gamma_lambda_is_gamma"] = not any(homology(DD, w).values())

    # The Tate identity: the composite localization-of-completion equals
    # Sigma Delta Gamma.  The left side is the cone over Gamma m -> Lambda m
    # (never a naive functor composition on truncated models); the right
    # side applies Delta to the Gamma model, which is legitimate because
    # that model is genuinely torsion, so its completion tower is honest.
    tmodel = _tate_model(g, lam)
    ttable = homology(tmodel, w)
    # completing a torsion model needs ceiling room (divisibility reaches
    # upward), dual to gamma needing floor room, so recompute Gamma on a
    # ceiling-extended window before taking its fiber into the completion
    _, tw = _ideal_data(p)
    w_big = Window(w.t_lo, w.t_hi + s_max * tw + 1)
    g_big = gamma(m, v, w_big, default_s_max(w_big))
    dg = delta(g_big.model, v, w, s_max)
    sdg_table = homology(shift(dg.model, 1), w)
    sdg_flags = {(s + 1, t) for (s, t) in (dg.flags | g_big.flags)}
    report["lambda_L_is_shift_delta_gamma"] = _tables_equal(
        ttable, sdg_table, w, excluded | sdg_flags)

    # adjunction via free resolution
    if isinstance(m, GradedModule):
        m2 = adjunction_module if adjunction_module is not None else m
        report["adjunction"] = adjunction_check(
            m, m2, v, w, s_max, resolution_length)
    else:
        report["adjunction"] = None

    report["fracture"] = fracture_check(m, v, w, s_max, g=g, lam=lam, L=L)
    verdicts = [val for key, val in report.items()
                if isinstance(val, bool)]
    report["all"] = all(verdicts) and report["fracture"]["exact"] and \
        (report["adjunction"] is None or report["adjunction"])
    return report


def adjunction_check(m: GradedModule, m2: GradedModule,
                     v: Union[SpecSubset, HomIdeal], w: Window,
                     s_max: Optional[int] = None,
                     length: int = 5) -> bool:
    """dim pi Hom(Gamma m, m') = dim pi Hom(m, Lambda m') bidegree-wise.

    The left side uses the stabilized torsion stage of a free resolution of
    m; the right side the stabilized completion of m'.  Stages are detected
    independently, so agreement is contentful.
    """
    p = _ideal(v)
    ring = p.ring
    s_max = s_max or default_s_max(w)
    elems, total_weight = _ideal_data(p)
    res_w = Window(w.t_lo - s_max * total_weight - length * max(ring.weights) - 2,
                   max(0, w.t_hi))
    res = minimal_free_resolution(m, length, res_w)
    F = resolution_complex(res, res_w)

    # the resolution's generator degrees bound how far the windows must
    # extend: dual generators reach up to `deepest` above the module
    deepest = -min((d for f in res.stages for d in f.gen_degrees), default=0)

    # left side: stabilize Hom(D_s (x) F, m2) as s grows
    n = len(elems)
    left_tables = []
    hom_w = Window(w.t_lo, w.t_hi + s_max * total_weight + deepest + 1)
    stable_left = None
    prev = None
    run = 0
    for s in range(1, s_max + 1):
        G = dual_koszul_free(ring, elems, s).tensor(F)
        H = G.hom_into(m2, hom_w, validate=False)
        tab = homology(H, w)
        if prev is not None and tab == prev:
            run += 1
            if run >= 2:
                stable_left = tab
                break
        else:
            run = 0
        prev = tab
    left = stable_left if stable_left is not None else prev

    # right side; the dual resolution generators raise the tensor floor, so
    # complete over a window deep enough that the product still covers w
    lam_w = Window(w.t_lo - deepest - 1, w.t_hi)
    lam = completion(m2, v, lam_w, s_max)
    RH, _ = free_tensor(F.dual(), lam.model)
    right = homology(RH, w)

    safe_s_lo = -(length - 2)
    keys = {k for k in set(left) | set(right)
            if w.t_lo <= k[1] <= w.t_hi and safe_s_lo <= k[0] <= n}
    return all(left.get(k, 0) == right.get(k, 0) for k in keys)


def fracture_check(m, v: Union[SpecSubset, HomIdeal], w: Window,
                   s_max: Optional[int] = None,
                   g: Optional[FunctorResult] = None,
                   lam: Optional[FunctorResult] = None,
                   L: Optional[FunctorResult] = None) -> Dict[str, object]:
    """Mayer-Vietoris exactness of pi m -> pi Lm + pi Lambda m -> pi L Lambda m."""
    p = _ideal(v)
    ring = p.ring
    fld = ring.field
    s_max = s_max or default_s_max(w)
    w_ext = extended_window(w, v, s_max)
    g = g or gamma(m, v, w_ext, s_max)
    X = g.provenance["input"]
    lam = lam or completion(X, v, w_ext, s_max)
    L = L or localize_away(m, v, w_ext, s_max, gamma_res=g)
    G = g.model
    Y = lam.model
    lam_map = lam.from_input            # m -> Lambda m

    LXc = cone(g.to_input)              # L m = cone(Gamma m -> m)
    T = _tate_model(g, lam)             # L Lambda m = cone(Gamma m -> Lambda m)

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
                               w: Window, ring: Optional[GradedRing] = None
                               ) -> Dict[str, object]:
    """Detect windowed acyclicity through the supplied primes.

    primes: list of (prime ideal, inverting element or None).  For each, the
    detector checks acyclicity of m (x) Kos(R;p) after telescope-inverting
    the element; m is declared locally acyclic iff all detectors pass, and
    the verdict is compared against direct windowed acyclicity of m.
    """
    if isinstance(m, GradedModule):
        ring = m.ring
        m = module_complex(m, Window(w.t_lo - max(ring.weights) - 1,
                                     max(w.t_hi, m.top_degree)))
    elif ring is None:
        ring = m.ring
    direct = not any(homology(m, w).values())
    per_prime = []
    all_acyclic = True
    for p, u in primes:
        K = koszul_free(ring, [g for g in p.gens if g])
        C, _ = free_tensor(K, m, t_floor=w.t_lo)
        if u is None:
            tab = homology(C, w)
            detected = any(tab.values())
            flags: Set[BiDeg] = set()
        else:
            inv = telescope_invert(C, u, w, ring=ring)
            detected = any(inv.homotopy.values())
            flags = inv.flags
        per_prime.append({"prime": p.name, "nonacyclic": detected,
                          "flagged": sorted(flags)})
        if detected:
            all_acyclic = False
    return {"direct_acyclic": direct, "local_acyclic": all_acyclic,
            "agreement": direct == all_acyclic, "per_prime": per_prime}
