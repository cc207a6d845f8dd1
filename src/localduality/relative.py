"""Finite ring maps, restriction/extension of scalars, relative dualizing
modules, and the relative duality comparisons built on them."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .exactla import (ContractViolation, SparseMatrix, extend_basis,
                      kernel_rows, rref, solve)
from .graded import (FreeModule, GradedModule, GradedRing, HomIdeal, Mono,
                     Poly, Window, dual_hilbert_function, hilbert_function,
                     minimal_free_resolution, tor)
from .complexes import (WindowedComplex, generator_chain, homology,
                        induced_on_homology, module_slice,
                        resolution_complex)
from .torsion import gamma
from .duality import (GorensteinCertificate, _require_certified,
                      _socle_comparison, dual_localize, gorenstein_certificate,
                      injective_hull, is_free_rank_one)


# ring maps -------------------------------------------------------------------


class RingMap:
    """Degree-preserving map of graded rings, given on generators.

    `images[i]` is the image (target element, Poly or parseable string) of the
    i-th source generator.  Construction validates degrees and checks that
    every source relation maps to zero in the target.
    """

    def __init__(self, source: GradedRing, target: GradedRing,
                 images: Sequence, name: str = "f"):
        if source.characteristic != target.characteristic:
            raise ContractViolation("ring map must preserve the ground field")
        if len(images) != source.n:
            raise ContractViolation(
                f"expected {source.n} generator images, got {len(images)}")
        self.source = source
        self.target = target
        self.name = name
        imgs: List[Poly] = []
        for i, im in enumerate(images):
            p = target.parse(im) if isinstance(im, str) else dict(im)
            p = target.normal_form(p)
            d = target.poly_degree(p)
            if d is not None and d != source.generators[i].degree:
                raise ContractViolation(
                    f"image of {source.generators[i].name} has degree {d}, "
                    f"expected {source.generators[i].degree}")
            imgs.append(p)
        self.images = imgs
        for r in source.relations:
            if self.push(r):
                raise ContractViolation(
                    f"image does not satisfy source relation "
                    f"{source.poly_str(r)}")

    @classmethod
    def identity(cls, ring: GradedRing) -> "RingMap":
        return cls(ring, ring, [ring.gen_poly(i) for i in range(ring.n)],
                   name="id")

    @classmethod
    def unit(cls, ring: GradedRing) -> "RingMap":
        """Inclusion of the ground field (the generator-free ring)."""
        k = GradedRing(ring.characteristic, [], [], name="k")
        return cls(k, ring, [], name="unit")

    def push(self, p) -> Poly:
        """Image of a source element in the target."""
        src, tgt = self.source, self.target
        if isinstance(p, str):
            p = src.parse(p)
        out: Poly = {}
        for mono, c in p.items():
            term: Poly = {(0,) * tgt.n: c % tgt.characteristic}
            # apply generator factors right-to-left in canonical mono order
            for i in range(src.n - 1, -1, -1):
                for _ in range(mono[i]):
                    term = tgt.poly_mul(self.images[i], term)
            out = tgt.poly_add(out, term)
        return tgt.normal_form(out)

    def __repr__(self):
        ims = ", ".join(self.target.poly_str(p) for p in self.images)
        return f"RingMap({self.source.name} -> {self.target.name}; {ims})"


# presentation extraction -----------------------------------------------------


def _evaluate(model: WindowedComplex, units: List[Tuple[int, int]],
              basis: List[Tuple[int, Mono]], t: int) -> SparseMatrix:
    """Evaluation at degree t of the free module on the generators `units`
    (degree, index of a unit vector of the model in that degree): the
    column of basis element (i, mono) is mono times generator i, through the
    model's memoised monomial actions."""
    ent: Dict[Tuple[int, int], int] = {}
    for c, (i, mono) in enumerate(basis):
        dg, r = units[i]
        act = model.monomial_action(mono, 0, dg)
        if act is not None:
            ent.update(((row, c), v) for (row, col), v in act.entries.items()
                       if col == r)
    return SparseMatrix._trusted(model.ring.field, model.dim(0, t),
                                 len(basis), ent)


@dataclass
class Presented:
    """A module on a window (an s = 0 slice) cut down to a finite
    presentation; units[i] = (degree, r) says that generator i is the r-th
    unit vector of the model in that degree."""

    module: GradedModule
    model: WindowedComplex
    units: List[Tuple[int, int]]
    finite: bool
    guard: int
    flags: List[str] = field(default_factory=list)

    def eval_matrix(self, t: int) -> SparseMatrix:
        """Evaluation free(gens) coords at t -> model coords at t."""
        return _evaluate(self.model, self.units,
                         self.module.free.basis_in_degree(t), t)

    def lift(self, vec: Sequence[int], t: int) -> Optional[List[Poly]]:
        """Preimage of a model vector under the evaluation map, as a free row."""
        x = solve(self.eval_matrix(t), list(vec))
        if x is None:
            return None
        return self.module.free.element_from_coords(dict(enumerate(x)), t)


def present_model(model: WindowedComplex, w: Window, name: str) -> Presented:
    """Extract a finite presentation from a module on a window (an s = 0
    slice), top degree down.

    In each degree the unit vectors outside the evaluated image become new
    generators, chosen greedily in index order: e_r is taken iff r is not a
    pivot of the column-reversed echelon form of the image.  The kernel of
    the evaluation map, modulo the relations already implied, gives new
    relations (exactla.extend_basis, which refuses implied relations that
    do not evaluate to zero).  `finite` certifies that no generator or
    fresh relation appeared within `guard` (twice the largest generator
    weight) degrees of the window floor, so the presentation plausibly
    describes the module below the window too.
    """
    ring = model.ring
    guard = 2 * max((-g.degree for g in ring.generators), default=1)
    fld = ring.field
    gens: List[Tuple[str, int]] = []
    units: List[Tuple[int, int]] = []
    rels: List[List[Poly]] = []
    rel_degrees: List[int] = []
    last_event = w.t_hi + 1
    top = max((t for (_s, t) in model.dims), default=w.t_lo - 1)
    for t in range(min(top, w.t_hi), w.t_lo - 1, -1):
        d = model.dim(0, t)
        basis = FreeModule(ring, [dg for dg, _ in units]).basis_in_degree(t)
        image = _evaluate(model, units, basis, t)
        reversed_image = SparseMatrix._trusted(
            fld, len(basis), d,
            {(c, d - 1 - r): v for (r, c), v in image.entries.items()})
        pivots = set(rref(reversed_image)[1])
        ent = dict(image.entries)
        cols = len(basis)
        for r in range(d):
            if d - 1 - r not in pivots:
                ent[(r, cols)] = 1
                cols += 1
                gens.append((f"g{len(gens)}", t))
                units.append((t, r))
                last_event = t
        if not cols:
            continue
        ker, _ = kernel_rows(SparseMatrix._trusted(fld, d, cols, ent))
        if ker.rows:
            free = FreeModule(ring, [dg for dg, _ in units])
            known = free.multiples(rels, rel_degrees, t)
            for row in extend_basis(known, ker):
                rels.append(free.element_from_coords(row, t))
                rel_degrees.append(t)
                last_event = t
    module = GradedModule(ring, gens, rels, name=name)
    flags: List[str] = []
    for t in range(w.t_lo, min(top, w.t_hi) + 1):
        if module.dim_in_degree(t) != model.dim(0, t):
            flags.append(f"presentation mismatch at degree {t}")
    finite = last_event >= w.t_lo + guard and not flags
    return Presented(module, model, units, finite, guard, flags)


# restriction / extension of scalars ------------------------------------------


def restrict(f: RingMap, mod: GradedModule, w: Window,
             name: Optional[str] = None) -> Presented:
    """Restriction of scalars f^*: the target module viewed over the source."""
    if mod.ring is not f.target and mod.ring.name != f.target.name:
        raise ContractViolation("module is not over the target ring")
    dims = {t: mod.dim_in_degree(t) for t in w.t_range()}
    model = module_slice(f.source, dims,
                         lambda mono, t: mod.element_action(f.push({mono: 1}), t),
                         w, mod.top_degree)
    return present_model(model, w, name=name or f"res_{mod.name}")


def target_module(f: RingMap) -> GradedModule:
    return GradedModule.free_module(f.target, [0], name=f.target.name)


def induce(f: RingMap, mod: GradedModule) -> GradedModule:
    """Extension of scalars: same presentation with coefficients pushed."""
    if mod.ring is not f.source and mod.ring.name != f.source.name:
        raise ContractViolation("module is not over the source ring")
    rels = [[f.push(p) for p in row] for row in mod.relations]
    return GradedModule(f.target, mod.generators, rels,
                        name=f"ind_{mod.name}")


# compactness -----------------------------------------------------------------


def compactness_certificate(f: RingMap, w: Window) -> Dict[str, object]:
    """Attempt a finite free source-resolution of the restricted target."""
    rst = restrict(f, target_module(f), w, name=f"{f.target.name}|{f.source.name}")
    if not rst.finite:
        return {"certified": False, "restricted": rst,
                "reason": "presentation does not stabilize above the "
                          "window floor", "ranks": None, "resolution": None}
    cap = max(4, w.span // 3)
    res = minimal_free_resolution(rst.module, cap)
    ranks = [st.rank for st in res.stages]
    terminated = 0 in ranks
    out = {"certified": terminated, "restricted": rst, "resolution": res,
           "ranks": ranks}
    if not terminated:
        out["reason"] = f"resolution ranks {ranks} do not terminate " \
                        f"within length {cap}"
    return out


# relative dualizing module ---------------------------------------------------


@dataclass
class DualizingModule:
    """omega_f = Hom over the source of the target, with target-module
    structure from lifted multiplication maps."""

    map: RingMap
    complex: WindowedComplex            # over the source ring
    ext_table: Dict[Tuple[int, int], int]
    stage: Optional[int]                # homological stage -j0 of concentration
    gen_degree: Optional[int]           # internal degree of the generator
    module: Optional[GradedModule]      # over the target ring, if concentrated
    homology: Optional[WindowedComplex]  # over the target, in s = 0
    invertible: Optional[bool]
    certificate: Dict[str, object]
    flags: List[str] = field(default_factory=list)


def _lift_multiplications(f: RingMap, rst: Presented, res,
                          w: Window) -> Tuple[List[List[Dict[Tuple[int, int], Poly]]], List[str]]:
    """Chain maps mu_j lifting multiplication by each target generator.

    mu[j][i] gives the poly-entry matrix of stage i of the resolution mapping
    to itself with internal degree shift by the j-th target generator.
    """
    R, S = f.source, f.target
    tgt = target_module(f)
    flags: List[str] = []
    mus: List[List[Dict[Tuple[int, int], Poly]]] = []
    for j in range(S.n):
        dj = S.generators[j].degree
        stage_maps: List[Dict[Tuple[int, int], Poly]] = []
        # stage 0: solve through the evaluation map
        mu0: Dict[Tuple[int, int], Poly] = {}
        F0 = res.stages[0]
        for b, db in enumerate(F0.gen_degrees):
            t2 = db + dj
            if t2 < w.t_lo:
                flags.append(f"mu[{j}] stage 0 gen {b} below window floor")
                continue
            dg, unit = rst.units[b]
            act = tgt.generator_action(j, dg)
            target = [act.entries.get((r, unit), 0) for r in range(act.rows)]
            row = rst.lift(target, t2)
            if row is None:
                raise ContractViolation("multiplication does not lift at "
                                        f"stage 0, generator {b}")
            for a, p in enumerate(row):
                if p:
                    mu0[(a, b)] = p
        stage_maps.append(mu0)
        # higher stages: solve d o mu_i = mu_{i-1} o d degreewise
        for i in range(1, len(res.stages)):
            Fi, Fprev = res.stages[i], res.stages[i - 1]
            if Fi.rank == 0:
                stage_maps.append({})
                continue
            dmat = res.diffs[i - 1]
            mui: Dict[Tuple[int, int], Poly] = {}
            prev = stage_maps[i - 1]
            for b, db in enumerate(Fi.gen_degrees):
                t2 = db + dj
                if t2 < w.t_lo:
                    flags.append(f"mu[{j}] stage {i} gen {b} below window floor")
                    continue
                # rhs = mu_{i-1}(d(e_b)) as an element of F_{i-1} at t2
                rhs_row = [dict() for _ in range(Fprev.rank)]
                for (a, bb), p in dmat.items():
                    if bb != b:
                        continue
                    for (aa, a2), q in prev.items():
                        if a2 == a:
                            rhs_row[aa] = R.poly_add(
                                rhs_row[aa], R.poly_mul(q, p))
                rhs_row = [R.normal_form(q) for q in rhs_row]
                rvec = Fprev.coords(rhs_row, t2)
                D = res.realize_diff(i - 1, t2)
                x = solve(D, rvec)
                if x is None:
                    raise ContractViolation(
                        f"multiplication does not lift at stage {i}")
                row = Fi.element_from_coords(dict(enumerate(x)), t2)
                for a, p in enumerate(row):
                    if p:
                        mui[(a, b)] = p
            stage_maps.append(mui)
        mus.append(stage_maps)
    return mus, flags


def _dual_action_matrix(ring: GradedRing, dual_free: FreeModule,
                        mu: Dict[Tuple[int, int], Poly],
                        t: int, dj: int) -> SparseMatrix:
    """Action on Hom(F_i, R) coordinates at degree t: precomposition with mu."""
    src_basis = dual_free.basis_in_degree(t)
    tgt_basis = dual_free.basis_in_degree(t + dj)
    ent: Dict[Tuple[int, int], int] = {}
    for c, (a, m) in enumerate(src_basis):
        row_polys: List[Poly] = [dict() for _ in range(dual_free.rank)]
        for (aa, b), p in mu.items():
            if aa == a:
                row_polys[b] = ring.poly_add(
                    row_polys[b], ring.poly_mul(p, {m: 1}))
        row_polys = [ring.normal_form(q) for q in row_polys]
        if not any(row_polys):
            continue
        v = dual_free.coords(row_polys, t + dj, tgt_basis)
        for r, val in enumerate(v):
            if val:
                ent[(r, c)] = val
    return SparseMatrix(ring.field, len(tgt_basis), len(src_basis), ent)


def dualizing_module(f: RingMap, w: Window,
                     compactness: Optional[Dict[str, object]] = None
                     ) -> DualizingModule:
    """omega_f as a windowed complex over the source plus, when its homology
    is concentrated in one stage, a presented module over the target."""
    R, S = f.source, f.target
    if compactness is None:
        compactness = compactness_certificate(f, w)
    if not compactness["certified"]:
        raise ContractViolation(
            f"compactness not certified: {compactness.get('reason')}")
    rst: Presented = compactness["restricted"]
    res = compactness["resolution"]
    Fc = resolution_complex(res)
    dualFc = Fc.dual()
    Rmod = GradedModule.free_module(R, [0], name=R.name)
    wC = dualFc.realize(Rmod, w)
    guard = rst.guard
    ext_table = dict(homology(wC, w))
    flags = list(rst.flags)
    # homology concentration, ignoring the floor guard zone where the
    # windowed resolution may be missing generators
    trusted = {(s, t): v for (s, t), v in ext_table.items()
               if t >= w.t_lo + guard}
    stages_seen = sorted({s for (s, t), v in trusted.items() if v})
    mus, mu_flags = _lift_multiplications(f, rst, res, w)
    flags.extend(mu_flags)
    concentrated = len(stages_seen) == 1
    stage = stages_seen[0] if concentrated else None
    module = None
    hmodel = None
    gen_degree = None
    invertible: Optional[bool] = None
    certificate: Dict[str, object] = {"concentrated": concentrated,
                                      "stages": stages_seen}
    if concentrated:
        dual_free = dualFc.stage(stage)
        hw = Window(w.t_lo + guard, w.t_hi)
        hmodel = _omega_homology_model(f, wC, dual_free, mus, stage, hw)
        pres = present_model(hmodel, hw, name=f"omega_{f.name}")
        module = pres.module
        flags.extend(pres.flags)
        if not pres.finite:
            flags.append("omega presentation near window floor")
        tops = [t for (_s, t) in hmodel.dims]
        if tops:
            gen_degree = max(tops)
            iso = is_free_rank_one(hmodel, gen_degree, hw)
            certificate["rank_one_free"] = iso
            if iso:
                dmod = GradedModule.free_module(S, [-gen_degree], name="Dw")
                tt = tor(module, dmod, hw)
                hf = hilbert_function(
                    GradedModule.free_module(S, [0]), hw)
                t0 = {t: tt.get((0, t), 0) for t in hw.t_range()}
                higher = {k: v for k, v in tt.items() if k[0] > 0 and v
                          and k[1] >= hw.t_lo + guard}
                certificate["unit_tensor"] = \
                    all(t0.get(t, 0) == hf.get(t, 0)
                        for t in range(hw.t_lo + guard, hw.t_hi + 1)) \
                    and not higher
                invertible = iso and certificate["unit_tensor"]
            else:
                invertible = False
        else:
            invertible = False
            certificate["rank_one_free"] = False
    return DualizingModule(f, wC, ext_table, stage, gen_degree, module,
                           hmodel, invertible, certificate, flags)


def _omega_homology_model(f: RingMap, wC: WindowedComplex,
                          dual_free: FreeModule,
                          mus: List[List[Dict[Tuple[int, int], Poly]]],
                          stage: int, w: Window) -> WindowedComplex:
    """Target-module structure on the concentrated homology of omega_f, as
    a module in s = 0.  The lifted multiplications mus act per target
    generator, so a monomial is their chain (generator_chain)."""
    R, S = f.source, f.target
    j0 = -stage

    def act(j: int, _s: int, t: int) -> SparseMatrix:
        dj = S.generators[j].degree
        mu = mus[j][j0] if j0 < len(mus[j]) else {}
        return induced_on_homology(
            wC, wC, stage, t, t + dj,
            lambda: _dual_action_matrix(R, dual_free, mu, t, dj))

    dims = {t: wC.hspace(stage, t)[1].rows for t in w.t_range()}
    model = module_slice(
        S, dims, lambda mono, t: generator_chain(model, act, mono, 0, t), w,
        wC.t_top)
    return model


# coinduction -----------------------------------------------------------------


def coinduce_table(f: RingMap, x: GradedModule,
                   w: Window) -> Dict[Tuple[int, int], int]:
    """Homology table of Hom over the source of the target into x."""
    compactness = compactness_certificate(f, w)
    if not compactness["certified"]:
        raise ContractViolation("compactness not certified")
    res = compactness["resolution"]
    Fc = resolution_complex(res)
    return dict(homology(Fc.hom_into(x, w), w))


# coinduction splitting -------------------------------------------------------


def coinduction_split_check(f: RingMap, q: HomIdeal,
                            fiber: Sequence[HomIdeal], w: Window,
                            s_max: Optional[int] = None) -> Dict[str, object]:
    """Torsion and Matlis routes of the fiberwise decomposition over q."""
    S = f.target
    if q.ring is not f.source and q.ring.name != f.source.name:
        raise ContractViolation("q must be an ideal of the source")
    if not fiber:
        raise ContractViolation("at least one fiber prime is required")
    pushed = [f.push(g) for g in q.gens]
    for p in fiber:
        if p.ring is not S and p.ring.name != S.name:
            raise ContractViolation("fiber primes must live in the target")
        for g in pushed:
            if not p.contains(g):
                raise ContractViolation(
                    f"fiber prime {p.name} does not lie over {q.name}")
    flags: List[str] = []
    Smod = target_module(f)
    fq = HomIdeal(S, pushed, name=f"{f.name}({q.name})")
    lhs = gamma(Smod, fq, w, s_max)
    lhs_table = lhs.table()
    rhs_table: Dict[Tuple[int, int], int] = {}
    excluded = set(lhs.flags)
    for p in fiber:
        g = gamma(Smod, p, w, s_max)
        excluded |= g.flags
        for k, v in g.table().items():
            rhs_table[k] = rhs_table.get(k, 0) + v
    keys = set(lhs_table) | set(rhs_table)
    gamma_route = all(lhs_table.get(k, 0) == rhs_table.get(k, 0)
                      for k in keys if k not in excluded)
    report: Dict[str, object] = {"gamma_route": gamma_route,
                                 "excluded": sorted(excluded)}
    exact = q.is_maximal() and all(p.is_maximal() for p in fiber)
    if exact:
        rst = restrict(f, Smod, w)
        dual_dims = dual_hilbert_function(rst.module, w)
        want: Dict[int, int] = {}
        for p in fiber:
            ih = injective_hull(p, w)
            for t, v in (ih.hilbert or {}).items():
                want[t] = want.get(t, 0) + v
        guard = rst.guard
        hi = w.t_hi - guard  # dual of floor-guarded restriction
        matlis_route = all(dual_dims.get(t, 0) == want.get(t, 0)
                           for t in range(w.t_lo, hi + 1))
        report["matlis_route"] = matlis_route
        report["mode"] = "exact"
        report["verdict"] = gamma_route and matlis_route
    else:
        flags.append("non-maximal primes: Matlis route skipped, torsion "
                     "route compared on unflagged bidegrees only")
        report["mode"] = "kappa(p)-rank"
        report["verdict"] = gamma_route
    report["flags"] = flags
    return report


# the relative duality comparison ---------------------------------------------


def theorem_bc_check(f: RingMap, p: HomIdeal, w: Window,
                     source_certificate: Optional[GorensteinCertificate]
                     = None) -> Dict[str, object]:
    """Twisted local cohomology of the target against the shifted injective.

    Requires the normalization data: (1) certified Gorenstein source,
    (2) certified compactness, (3) certified invertible omega_f.
    """
    R, S = f.source, f.target
    if p.ring is not S and p.ring.name != S.name:
        raise ContractViolation("p must be an ideal of the target")
    if source_certificate is None:
        source_certificate = gorenstein_certificate(R, w)
    _require_certified(
        source_certificate,
        "condition (1) fails: source is not certified Gorenstein"
        + (f" ({source_certificate.failure})"
           if source_certificate.failure else ""))
    nu = source_certificate.shift
    compactness = compactness_certificate(f, w)
    if not compactness["certified"]:
        raise ContractViolation(
            f"condition (2) fails: {compactness.get('reason')}")
    omega = dualizing_module(f, w, compactness=compactness)
    if not omega.invertible or omega.module is None:
        raise ContractViolation(
            "condition (3) fails: omega_f is not certified invertible")
    j0 = -omega.stage
    a = omega.gen_degree
    nS = S.krull_dim()
    guard = compactness["restricted"].guard
    report: Dict[str, object] = {"nu": nu, "j0": j0, "gen_degree": a,
                                 "krull_dim": nS}
    if p.is_maximal():
        d = 0
        go = gamma(omega.module, p, w)
        # comparison 1: Gamma_p(target) tensor omega = Gamma_p(omega) in
        # index nS + j0 against the hull with its socle at nu + nS + j0
        i1 = nS + j0
        cmp1, cw1 = _socle_comparison(
            go, i1, nu + i1, w, lo=w.t_lo + guard + max(a, 0) + i1,
            hi=w.t_hi - S.n + i1)
        # comparison 2: Gamma_p(omega) against the (nu + d)-shifted hull
        shift2 = nu + d + nS
        cmp2, cw2 = _socle_comparison(go, nS, shift2, w,
                                      lo=w.t_lo + shift2 + max(a, 0))
        report.update({"verdict": cmp1 and cmp2, "mode": "exact",
                       "dimension": d,
                       "twisted_comparison": cmp1,
                       "twisted_window": cw1,
                       "omega_comparison": cmp2,
                       "omega_window": cw2})
        return report
    d = p.dim_of_quotient
    ip = injective_hull(p, w)
    loc = dual_localize(omega.module, p, w)
    ok = loc["ranks"] == {nS: ip.kappa_rank}
    report.update({"verdict": ok, "mode": "kappa(p)-rank", "dimension": d,
                   "ranks": loc["ranks"], "expected_index": nS,
                   "offset": nu + d})
    return report


# transitivity ----------------------------------------------------------------


def transitivity_check(r: RingMap, f: RingMap, w: Window) -> Dict[str, object]:
    """omega of the source (over the field) extended and twisted by omega_f
    against omega of the target."""
    if r.source.n != 0:
        raise ContractViolation("the first map must include the ground field")
    if r.target is not f.source and r.target.name != f.source.name:
        raise ContractViolation("maps do not compose")
    comp_r = compactness_certificate(r, w)
    if not comp_r["certified"]:
        raise ContractViolation(
            f"field-to-source compactness not certified: "
            f"{comp_r.get('reason')}")
    comp_f = compactness_certificate(f, w)
    if not comp_f["certified"]:
        raise ContractViolation(
            f"source-to-target compactness not certified: "
            f"{comp_f.get('reason')}")
    omega_r = dualizing_module(r, w, compactness=comp_r)
    omega_f = dualizing_module(f, w, compactness=comp_f)
    if omega_r.module is None or omega_f.module is None:
        raise ContractViolation("a dualizing module is not concentrated")
    unit_s = RingMap(r.source, f.target,
                     [], name="unit_S") if r.source.n == 0 else None
    comp_s = compactness_certificate(unit_s, w)
    if not comp_s["certified"]:
        raise ContractViolation(
            f"field-to-target compactness not certified: "
            f"{comp_s.get('reason')}")
    omega_s = dualizing_module(unit_s, w, compactness=comp_s)
    if omega_s.module is None:
        raise ContractViolation("composite dualizing module not concentrated")
    pushed = induce(f, omega_r.module)
    tt = tor(pushed, omega_f.module, w)
    # total degrees, carrying each omega's homological stage
    lhs: Dict[int, int] = {}
    for (pp, t), v in tt.items():
        if v:
            n = t - pp + omega_r.stage + omega_f.stage
            lhs[n] = lhs.get(n, 0) + v
    rhs: Dict[int, int] = {}
    for (_s, t), v in (omega_s.homology.dims if omega_s.homology else {}).items():
        rhs[t + omega_s.stage] = rhs.get(t + omega_s.stage, 0) + v
    lo = w.t_lo + max(comp_r["restricted"].guard,
                      comp_f["restricted"].guard)
    keys = set(lhs) | set(rhs)
    verdict = all(lhs.get(n, 0) == rhs.get(n, 0) for n in keys
                  if lo <= n <= w.t_hi)
    return {"verdict": verdict, "lhs": lhs, "rhs": rhs, "range": (lo, w.t_hi)}
