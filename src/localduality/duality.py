"""Injective hulls, Matlis/Brown-Comenetz duality of complexes, dual
localization, and Gorenstein certification."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from .exactla import ContractViolation, SparseMatrix, rank
from .graded import (GradedModule, GradedRing, HomIdeal, Resolution, Window,
                     dual_hilbert_function, maximal_ideal,
                     minimal_free_resolution, resolution_ext)
from .complexes import (WindowedComplex, complex_element_action, homology,
                        induced_on_homology, module_slice)
from .torsion import FunctorResult, gamma, koszul_free, telescope_invert
from .cohom import (CohomologyTable, cohomology_table, generic_ext_ranks,
                    local_cohomology)


# injective models -----------------------------------------------------------


@dataclass
class InjectiveModel:
    """Model of the injective hull I_p of the residue field at p."""

    prime: HomIdeal
    hilbert: Optional[Dict[int, int]] = None       # exact, at p = m
    kappa_rank: Optional[int] = None               # at p != m
    route: str = "matlis"

    def dim(self, t: int) -> int:
        return (self.hilbert or {}).get(t, 0)


def injective_hull(p: HomIdeal, w: Window) -> InjectiveModel:
    """I_p: the Hilbert function of the Matlis dual of the ring at the
    maximal ideal (socle in degree 0), kappa(p)-rank data through dual
    localization otherwise, where p must be declared prime."""
    ring = p.ring
    if p.is_maximal():
        hilbert = dual_hilbert_function(GradedModule.free_module(ring, [0]), w)
        return InjectiveModel(p, hilbert=hilbert, route="matlis")
    # L_p(I_m): D_m(I_m) = R, localize at p, re-dual; the rank at the
    # generic point of a ring is 1
    p.require_declared_prime()
    return InjectiveModel(p, kappa_rank=1, route="dual_localize")


def brown_comenetz(m: WindowedComplex, w: Window) -> WindowedComplex:
    """Degreewise k-linear dual complex with transposed differentials and
    actions; an involution on homology tables within the window."""
    ring = m.ring
    dims = {(-s, -t): d for (s, t), d in m.dims.items()
            if w.t_lo <= -t <= w.t_hi}
    diffs = {}
    for (s, t) in dims:
        d = m.diff(-s + 1, -t)
        if d.entries:
            diffs[(s, t)] = d.transpose()
    actions = {}
    for gi, g in enumerate(ring.generators):
        for (s, t) in dims:
            src = (-s, -t - g.degree)
            if m.dims.get(src):
                act = m.action(gi, -s, -t - g.degree)
                if act.entries:
                    actions[(gi, s, t)] = act.transpose()
    dual_w = Window(w.t_lo, w.t_hi)
    s_vals = [s for (s, _t) in dims] or [0]
    return WindowedComplex(ring, dims, diffs, actions,
                           min(s_vals), max(s_vals),
                           -m.window.t_lo, dual_w)


# reconstructing module structure on homology --------------------------------


def homology_model(model: WindowedComplex, s: int, w: Window) -> WindowedComplex:
    """The homology of one homological block with the induced generator
    actions, as a module in s = 0."""
    ring = model.ring

    def act(gi: int, t: int) -> SparseMatrix:
        q = ring.gen_poly(gi)
        return induced_on_homology(
            model, model, s, t, t + ring.generators[gi].degree,
            lambda: complex_element_action(model, q, s, t))

    dims = {t: model.hspace(s, t)[1].rows for t in w.t_range()}
    return module_slice(ring, dims, act, w, model.t_top)


# exact isomorphism tests against the two shapes -------------------------------


def is_shifted_hull(m: WindowedComplex, hull: Dict[int, int], b: int,
                    cw: Window) -> Optional[bool]:
    """Whether the module m (in s = 0) is, on cw, the injective hull of the
    residue field with its socle moved to degree b; None (undetermined) when
    b lies outside cw.

    hull is the hull's Hilbert function, socle in degree 0; M_b must be a
    line even where hull was taken on a window that misses its socle.  When
    the Hilbert functions agree on cw and M_b is a line, the witness map
    M_t -> Hom(R_{b-t}, M_b), v -> (mu -> mu.v), is an isomorphism onto the
    hull exactly when it is injective in every degree t of cw; its matrix
    stacks the monomial actions into M_b.  The order in which a monomial's
    factors act only signs its row, so the rank does not depend on it.
    """
    if any(m.dim(0, t) != hull.get(t - b, 0) for t in cw.t_range()):
        return False
    if not cw.t_lo <= b <= cw.t_hi:
        return None
    if m.dim(0, b) != 1:
        return False
    ring = m.ring
    for t in cw.t_range():
        d = m.dim(0, t)
        if not d:
            continue
        monos = ring.basis_in_degree(b - t)
        ent = {}
        for r, mu in enumerate(monos):
            a = m.monomial_action(mu, 0, t)
            if a is not None:
                ent.update(((r, c), v) for (_, c), v in a.entries.items())
        if rank(SparseMatrix._trusted(ring.field, len(monos), d, ent)) != d:
            return False
    return True


def is_free_rank_one(m: WindowedComplex, nu: int,
                     cw: Window) -> Optional[bool]:
    """Whether the module m (in s = 0) is, on cw, the free module R(nu) on
    one generator of degree nu; None (undetermined) when nu lies outside cw.

    When the Hilbert functions agree on cw, M_nu is a line (R_0 = k), and
    for v spanning it the witness map R(nu) -> M, mu -> mu.v, is an
    isomorphism exactly when R_{t-nu}.v spans M_t in every degree t of cw.
    """
    ring = m.ring
    if any(m.dim(0, t) != ring.dim_in_degree(t - nu) for t in cw.t_range()):
        return False
    if not cw.t_lo <= nu <= cw.t_hi:
        return None
    for t in cw.t_range():
        d = m.dim(0, t)
        if not d:
            continue
        monos = ring.basis_in_degree(t - nu)
        ent = {}
        for c, mu in enumerate(monos):
            a = m.monomial_action(mu, 0, nu)
            if a is not None:
                ent.update(((r, c), v) for (r, _), v in a.entries.items())
        if rank(SparseMatrix._trusted(ring.field, d, len(monos), ent)) != d:
            return False
    return True


# Gorenstein certification ----------------------------------------------------


@dataclass
class GorensteinCertificate:
    ring_name: str
    verdict: Optional[bool]            # None = inconclusive
    krull_dim: int
    shift: Optional[int] = None
    witness: Dict[str, object] = field(default_factory=dict)
    failure: Dict[str, object] = field(default_factory=dict)


# local duality over the ambient polynomial ring -------------------------------


def _over_ambient(mod: GradedModule) -> GradedModule:
    """mod as an S-module, S = ring.ambient the free ring on R's generators,
    so that R = S/I (a polynomial ring when R has no odd generator in odd
    characteristic): its generators, its relations, and g * e_j for each
    relation g of R and each generator e_j."""
    ring = mod.ring
    r = len(mod.generators)
    rows = list(mod.relations) + [
        [g if k == j else {} for k in range(r)]
        for g in ring.relations for j in range(r)]
    return GradedModule(ring.ambient, mod.generators, rows, name=mod.name)


def _duality_table(mod: GradedModule, p: HomIdeal,
                   w: Window) -> CohomologyTable:
    """H^i_m(mod) on w by graded local duality over S = k[x_1..x_N]
    (Bruns-Herzog 3.6.19), read off the minimal free resolution of mod over
    S.  R must have no odd generator in odd characteristic; p is a maximal
    ideal of R, which has the same local cohomology as m."""
    return _resolution_duality_table(
        minimal_free_resolution(_over_ambient(mod), mod.ring.n + 1), p, w)


def _resolution_duality_table(res: Resolution, p: HomIdeal,
                              w: Window) -> CohomologyTable:
    """H^i_m(M) on w from the minimal free resolution res of M over S: S is
    Gorenstein of dimension N with shift nu_S = sum of the generator
    weights - N, so H^i_m(M)_t = dim Ext^{N-i}_S(M, S)_{nu_S + N - t}.  res
    must reach stage N + 1 or end before it, as every resolution over S does
    by stage N when N >= 1 (Hilbert's syzygy theorem).  It is window-free,
    so every entry is exact and none is flagged."""
    S = res.ring
    n, top = S.n, sum(S.weights)               # top = nu_S + N
    table = resolution_ext(res, GradedModule.free_module(S, [0]),
                           Window(top - w.t_hi, top - w.t_lo, 0, n))
    return CohomologyTable({(n - j, top - t): v
                            for (j, t), v in table.items()}, {}, {
        "functor": "local_cohomology", "ideal": p.name, "route": "duality",
        "koszul_bound": len(p.gens)})


def _duality_certificate(ring: GradedRing,
                         w: Window) -> GorensteinCertificate:
    """The certificate read off the minimal free resolution F of R over S:
    R is Gorenstein iff it is Cohen-Macaulay, pd_S R = N - dim R
    (Auslander-Buchsbaum), and its last Betti number is 1 (Bruns-Herzog
    3.3.7); then nu = sum of the generator weights - dim R + the degree of
    F's last generator.  A False verdict names pd_S R, the last Betti rank
    and degrees, and the nonzero H^i_m(R), i != dim R, on w."""
    n = ring.krull_dim()
    R = GradedModule.free_module(ring, [0], name=ring.name)
    res = minimal_free_resolution(_over_ambient(R), ring.n)
    pd = max(i for i, st in enumerate(res.stages) if st.rank)
    last = res.stages[pd].gen_degrees
    if pd == ring.n - n and len(last) == 1:
        return GorensteinCertificate(
            ring.name, True, n, sum(ring.weights) - n + last[0],
            witness={"projective_dimension": pd, "last_degree": last[0]})
    lc = _resolution_duality_table(res, maximal_ideal(ring), w)
    return GorensteinCertificate(ring.name, False, n, failure={
        "projective_dimension": pd, "last_betti": len(last),
        "last_degrees": list(last),
        "nonvanishing": {k: v for k, v in lc.entries.items() if k[0] != n}})


def _socle_comparison(g: FunctorResult, i: int, b: int, w: Window,
                      lo: Optional[int] = None, hi: Optional[int] = None
                      ) -> Tuple[Optional[bool], Tuple[int, int]]:
    """Whether H^i of the torsion result g is the injective hull of the
    residue field with its socle moved to degree b, on the comparison
    window; returns (verdict, window), verdict None when undetermined.

    The hull's Hilbert function is known on w only, so a degree t is
    compared when t and t - b both lie in w, within the caller's bounds lo
    and hi, and below the lowest flagged degree of H^i:
    [max(w.t_lo, w.t_lo + b, lo), min(w.t_hi, w.t_hi + b, hi, flag - 1)].
    """
    ring = g.model.ring
    flag = min((t for (s, t) in g.flags if s == -i), default=w.t_hi + 1)
    cw = (max(w.t_lo, w.t_lo + b, w.t_lo if lo is None else lo),
          min(w.t_hi, w.t_hi + b, w.t_hi if hi is None else hi, flag - 1))
    if cw[0] > cw[1]:
        return None, cw
    hull = dual_hilbert_function(GradedModule.free_module(ring, [0]), w)
    return is_shifted_hull(homology_model(g.model, -i, w), hull, b,
                           Window(*cw)), cw


def _below_floor_possible(ring: GradedRing, hn: Dict[int, int], seen,
                          lowest: int, lo: int, aligns) -> bool:
    """Whether a hull with its socle b < lo, dim R_{b - t} at t, could give
    H^n_m(R) the values hn at the unflagged degrees seen (lowest nonzero at
    lowest).  An even generator is free when no leading monomial of R's
    complete Groebner basis is a power of it.  For free xs of one weight e,
    L(u) counts the standard mu of weight u that some x in xs keeps
    standard times every x^k (no leading monomial's part off x divides mu's
    part off x): L(u) <= dim R_{-u}, and mu -> mu * x for the first such x
    maps into L(u + e) injectively, so hn[t] < L(t - b) rules out b and
    every b - k*e.  Without free generators R ends at a weight top."""
    ring.complete(math.inf)
    leads = ring._leads
    free = [i for i in range(ring.n) if not ring.parity[i] and
            not any(lm[i] and sum(lm) == lm[i] for lm in leads)]
    if not free:
        # a standard monomial has each even exponent below that generator's
        # power among the leading monomials, and each odd one at most 1
        top = sum(wt if ring.parity[i] else wt * (min(
            lm[i] for lm in leads if sum(lm) == lm[i] > 0) - 1)
            for i, wt in enumerate(ring.weights))
        return any(aligns(b) for b in range(lowest - top, lo))

    def stable(u: int, xs) -> int:
        return sum(any(not any(all(lm[j] <= mu[j] for j in range(ring.n)
                                   if j != x) for lm in leads) for x in xs)
                   for mu in ring.basis_in_degree(-u))

    for e in sorted({ring.weights[i] for i in free}):
        xs = [i for i in free if ring.weights[i] == e]
        # b runs over the highest socle below lo in each residue class mod e
        if all(any(hn.get(t, 0) < stable(t - b, xs) for t in seen)
               for b in range(lo - e, lo)):
            return False
    return True


def gorenstein_certificate(ring: GradedRing, w: Window) -> GorensteinCertificate:
    """Whether R is Gorenstein, with its Krull dimension n and shift nu,
    H^n_m(R)_t = dim R_{nu + n - t}.

    Without an odd generator in odd characteristic, R = S/I over the
    polynomial ring S on its generators, and the verdict is read off the
    minimal free resolution of R over S (_duality_certificate): exact, never
    None, and w only bounds the degrees of a False verdict's nonvanishing
    H^i_m(R).  Otherwise the Koszul tower is read on w: H^*_m(R)
    concentrated in n with H^n_m(R)_t = dim R_{nu + n - t} at every
    unflagged t for a unique offset nu, confirmed as a module by the exact
    shifted-hull test; undetermined when no unflagged H^n_m(R) lies in the
    window, the offset is ambiguous or the socle leaves the comparison
    window."""
    if not any(ring.parity):
        return _duality_certificate(ring, w)
    n = ring.krull_dim()
    mx = maximal_ideal(ring)
    Rmod = GradedModule.free_module(ring, [0], name=ring.name)
    g = gamma(Rmod, mx, w)
    lc = cohomology_table(g, mx)

    def certificate(verdict, shift=None, **kw) -> GorensteinCertificate:
        return GorensteinCertificate(ring.name, verdict, n, shift, **kw)

    stray = {k: v for k, v in lc.entries.items()
             if k[0] != n and k not in lc.flags}
    if stray:
        return certificate(False, failure={"nonvanishing": stray})
    hn = {t: v for (i, t), v in lc.entries.items() if i == n}
    hn_flagged = {t for (i, t) in lc.flags if i == n}
    if all(t in hn_flagged for t in hn):
        return certificate(
            None, failure={"reason": "no unflagged H^n in the window; "
                                     "widen the window", "h_n": hn})
    seen = [t for t in w.t_range() if t not in hn_flagged]

    def aligns(b: int) -> bool:
        return all(hn.get(t, 0) == ring.dim_in_degree(b - t) for t in seen)

    # the socle, the hull's lowest degree, is at most H^n's lowest
    lowest = min(t for t in seen if hn.get(t, 0))
    candidates = [b - n for b in range(w.t_lo, lowest + 1) if aligns(b)]
    below = _below_floor_possible(ring, hn, seen, lowest, w.t_lo, aligns)
    if not candidates and not below:
        return certificate(
            False, failure={"h_n": hn, "reason": "no offset aligns the socle"})
    if below or len(candidates) > 1:
        return certificate(
            None, failure={"reason": "ambiguous offset; widen the window",
                           "candidates": candidates})
    nu = candidates[0]
    iso, cw = _socle_comparison(g, n, nu + n, w)
    if iso is None:
        return certificate(
            None, failure={"reason": "socle outside the comparison window; "
                                     "widen the window", "offset": nu})
    if not iso:
        return certificate(
            False, failure={"reason": "Hilbert functions align but no "
                                      "intertwiner", "offset": nu})
    return certificate(
        True, nu, witness={"h_n": hn, "comparison_window": cw})


def _require_certified(cert: GorensteinCertificate, refusal: str) -> None:
    """Refuse a ring its certificate does not certify Gorenstein: refusal
    when the certificate says False, a widen-the-window diagnostic when it
    is undetermined."""
    if cert.verdict is None:
        raise ContractViolation(
            f"ring {cert.ring_name}: the Gorenstein certificate is "
            f"undetermined on this window ({cert.failure.get('reason')})")
    if not cert.verdict:
        raise ContractViolation(refusal)


# dual localization -----------------------------------------------------------


def dual_localize(x: Union[GradedModule, CohomologyTable], p: HomIdeal,
                  w: Window,
                  certificate: Optional[GorensteinCertificate] = None
                  ) -> Dict[str, object]:
    """L_p = D_p . localize . D_m applied to m-torsion local cohomology.

    For a module M over a certified Gorenstein ring, D_m H^i_m(M) is
    identified with Ext^{n-i}(M, R) (finitely generated), the localization
    rank is its exact rank at the generic point of V(p), and the final dual
    preserves kappa(p)-ranks.  Output ranks are keyed by the original
    cohomological index i; the transported table lives in index i - d.
    """
    if isinstance(x, CohomologyTable):
        if not x.entries:
            return {"ranks": {}, "dimension_drop": p.dim_of_quotient}
        raise ContractViolation(
            "dual_localize needs the underlying module for a nonzero table")
    mod = x
    ring = mod.ring
    if p.is_maximal():
        lc = local_cohomology(mod, p, w)
        ranks = {}
        for (i, _t), v in lc.entries.items():
            ranks[i] = ranks.get(i, 0) + v
        return {"ranks": {i: 1 for i in ranks}, "table": lc,
                "dimension_drop": 0, "identity": True}
    if certificate is None:
        certificate = gorenstein_certificate(ring, w)
    _require_certified(certificate,
                       "dual_localize needs a Gorenstein ring for the Ext route")
    n = certificate.krull_dim
    ext_ranks = generic_ext_ranks(mod, p, n)
    ranks = {n - j: r for j, r in ext_ranks.items() if n - j >= 0}
    return {"ranks": ranks, "dimension_drop": p.dim_of_quotient}


# absolute Gorenstein / twists -------------------------------------------------


def absolute_gorenstein_check(ring: GradedRing, p: HomIdeal, w: Window,
                              certificate: Optional[GorensteinCertificate]
                              = None) -> Dict[str, object]:
    """Gamma_p R against the (nu + d)-shifted injective model."""
    if certificate is None:
        certificate = gorenstein_certificate(ring, w)
    _require_certified(certificate,
                       f"ring {ring.name} is not certified Gorenstein")
    n = certificate.krull_dim
    nu = certificate.shift
    Rmod = GradedModule.free_module(ring, [0], name=ring.name)
    if p.is_maximal():
        ok, cw = _socle_comparison(gamma(Rmod, p, w), n, nu + n, w)
        return {"verdict": ok, "shift": nu, "dimension": 0,
                "mode": "exact", "comparison_window": cw}
    d = p.dim_of_quotient
    loc = dual_localize(Rmod, p, w, certificate=certificate)
    ip = injective_hull(p, w)
    ok = loc["ranks"] == {n: ip.kappa_rank}
    return {"verdict": ok, "shift": nu, "dimension": d,
            "mode": "kappa(p)-rank", "ranks": loc["ranks"],
            "expected_index": n, "offset": nu + d}


def twist_check(ring: GradedRing, J: Optional[GradedModule], p: HomIdeal,
                w: Window) -> Dict[str, object]:
    """Gamma_p R tensor J against Sigma^d T_R(I_p) on total homology."""
    if not p.is_maximal():
        raise ContractViolation("twist_check is exact only at the maximal "
                                "ideal; use absolute_gorenstein_check with "
                                "dual localization at other primes")
    c = ring.n
    im = injective_hull(p, w)
    if J is None or all(J.dim_in_degree(t) == 0 for t in
                        range(w.t_lo, w.t_hi + 1)):
        lhs_zero = True
        totals = {}
    else:
        j_top = J.top_degree
        # Gamma_p is smashing, Gamma_p R (x) J = Gamma_p J, so the torsion
        # tower on J realizes the product
        T = gamma(J, p, w).model
        trusted_lo = w.t_lo + max(j_top, 0)
        totals = {}
        for (s, t), v in homology(T).items():
            nn = s + t
            if trusted_lo <= nn <= w.t_hi - c and w.t_lo <= t <= w.t_hi:
                totals[nn] = totals.get(nn, 0) + v
        lhs_zero = not totals
    lo = w.t_lo + max(J.top_degree if J is not None else 0, 0)
    hi = w.t_hi - c
    expected = {nn: im.dim(nn) for nn in range(lo, hi + 1) if im.dim(nn)}
    if lhs_zero:
        verdict = not expected
    else:
        verdict = all(totals.get(nn, 0) == expected.get(nn, 0)
                      for nn in range(lo, hi + 1))
    return {"verdict": verdict, "totals": totals, "expected": expected,
            "range": (lo, hi)}


# orthogonality ---------------------------------------------------------------


def orthogonality_check(p: HomIdeal, q: HomIdeal, u,
                        w: Window) -> Dict[str, object]:
    """Kos(R; p) tensor Kos(R; q) is acyclic after inverting a witness
    element lying in one ideal but not the other."""
    ring = p.ring
    if isinstance(u, str):
        u = ring.parse(u)
    pg = sorted(ring.poly_str(g) for g in p.gens)
    qg = sorted(ring.poly_str(g) for g in q.gens)
    if pg == qg:
        raise ContractViolation("orthogonality needs two distinct primes")
    if p.contains(u) == q.contains(u):
        raise ContractViolation(
            "witness element must lie in exactly one of the two ideals")
    # Kos(p) (x) Kos(q) is the Koszul complex on the concatenated generators
    gens = p.gens + q.gens
    F = koszul_free(ring, gens)
    Rmod = GradedModule.free_module(ring, [0])
    span_room = sum(-ring.poly_degree(g) for g in gens)
    # realized through R's top degree 0, also when the window ends below it
    C = F.realize(Rmod, Window(w.t_lo - span_room - 1, w.t_hi), validate=False)
    inv = telescope_invert(C, u, w)
    acyclic = not inv.homotopy and not inv.flags
    return {"verdict": acyclic, "flags": sorted(inv.flags),
            "residual": dict(inv.homotopy)}
