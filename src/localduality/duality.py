"""Injective hulls, Matlis/Brown-Comenetz duality of complexes, dual
localization, and Gorenstein certification."""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .exactla import ContractViolation, SparseMatrix, rank
from .graded import (GradedModule, GradedRing, HomIdeal, Resolution, Window,
                     dual_hilbert_function, maximal_ideal,
                     minimal_free_resolution, resolution_ext)
from .complexes import (WindowedComplex, complex_element_action, homology,
                        induced_on_homology, module_slice)
from .torsion import (FunctorResult, gamma, koszul_free, koszul_object,
                      telescope_invert)
from .cohom import CohomologyTable, generic_ext_ranks, local_cohomology


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
    """Whether a ring is Gorenstein (verdict, a bool: the certificate is
    exact), with its Krull dimension, its shift when it is, and the data
    behind the verdict."""

    ring_name: str
    verdict: bool
    krull_dim: int
    shift: Optional[int] = None
    witness: Dict[str, object] = field(default_factory=dict)
    failure: Dict[str, object] = field(default_factory=dict)


# local duality over the even polynomial ring ----------------------------------


def _restrict(mod: GradedModule) -> GradedModule:
    """mod as a module over P = ring.polynomial, the polynomial ring on R's
    even generators, on a minimal set of generators (GradedModule.pruned).

    R = S/I for the free ring S = ring.ambient, and S is free over P on the
    odd square-free monomials eps_A.  So mod over P has the generators
    eps_A * e_j and the relations eps_A * rho for each S-relation rho (mod's
    relations, and g * e_j for each relation g of R and each generator
    e_j), each entry written in P-coordinates with S's Koszul signs.
    Without an odd generator P = S, eps_A is 1 alone, and these are mod's
    generators and relations over S."""
    ring = mod.ring
    parity = ring.parity
    even = [i for i, odd in enumerate(parity) if not odd]
    eps = list(itertools.product(*[(0, 1) if odd else (0,) for odd in parity]))
    pos = {a: k for k, a in enumerate(eps)}
    r = len(mod.generators)
    gens = [(f"{ring.poly_str({a: 1})}*{name}" if any(a) else name,
             d + ring.mono_degree(a)) for a in eps for name, d in mod.generators]
    rows = []
    for rho in list(mod.relations) + [[g if k == j else {} for k in range(r)]
                                      for g in ring.relations for j in range(r)]:
        for a in eps:
            row = [{} for _ in gens]
            for j, q in enumerate(rho):
                # poly_mul multiplies in S: with S's signs, reducing nothing
                for m, c in ring.poly_mul({a: 1}, q).items():
                    b = tuple(e if odd else 0 for e, odd in zip(m, parity))
                    row[pos[b] * r + j][tuple(m[i] for i in even)] = c
            rows.append(row)
    return GradedModule(ring.polynomial, gens, rows, name=mod.name).pruned()


_RESOLUTIONS: "weakref.WeakKeyDictionary[GradedModule, Resolution]" = \
    weakref.WeakKeyDictionary()


def _polynomial_resolution(mod: GradedModule) -> Resolution:
    """The minimal free resolution of mod over P = ring.polynomial
    (_restrict) through stage N + 1, built once per module: local duality
    and the torsion functors' stage floor both read it."""
    res = _RESOLUTIONS.get(mod)
    if res is None:
        res = _RESOLUTIONS[mod] = minimal_free_resolution(
            _restrict(mod), mod.ring.polynomial.n + 1)
    return res


def _duality_table(mod: GradedModule, p: HomIdeal,
                   w: Window) -> CohomologyTable:
    """H^i_m(mod) on w by graded local duality over P = k[x_1..x_N] on R's
    even generators (Bruns-Herzog 3.6.19), read off the minimal free
    resolution of mod over P: R is finite over P, since odd squares vanish,
    so H^*_m(mod) is H^*_m of mod over P.  p is a maximal ideal of R, which
    has the same local cohomology as m."""
    return _resolution_duality_table(_polynomial_resolution(mod), p, w)


def _resolution_duality_table(res: Resolution, p: HomIdeal,
                              w: Window) -> CohomologyTable:
    """H^i_m(M) on w from the minimal free resolution res of M over P: P is
    Gorenstein of dimension N with shift nu_P = sum of the generator
    weights - N, so H^i_m(M)_t = dim Ext^{N-i}_P(M, P)_{nu_P + N - t}.  res
    must reach stage N + 1 or end before it, as every resolution over P does
    by stage N when N >= 1 (Hilbert's syzygy theorem).  It is window-free,
    so every entry is exact and none is flagged."""
    P = res.ring
    n, top = P.n, sum(P.weights)               # top = nu_P + N
    table = resolution_ext(res, GradedModule.free_module(P, [0]),
                           Window(top - w.t_hi, top - w.t_lo, 0, n))
    return CohomologyTable({(n - j, top - t): v
                            for (j, t), v in table.items()}, {}, {
        "functor": "local_cohomology", "ideal": p.name, "route": "duality",
        "koszul_bound": len(p.gens)})


def _odd_kernel(ring: GradedRing, c: int, degrees: Sequence[int]) -> List[int]:
    """The degrees of a basis of the odd generators' common kernel on
    Tor_c^P(R, k), where P is the polynomial ring on the even generators and
    degrees are those of Tor_c's basis.

    Tor_c^P(R, k) is the Koszul homology H_c(x_even; R), and an odd
    generator y maps its degree t to t + |y|.  Without an odd generator the
    kernel is all of Tor_c: degrees itself, and no Koszul complex is
    built."""
    odd = [i for i, o in enumerate(ring.parity) if o]
    if not odd:
        return list(degrees)
    K = koszul_object(GradedModule.free_module(ring, [0]),
                      [ring.gen_poly(i) for i, o in enumerate(ring.parity)
                       if not o], Window(min(degrees), max(degrees)))
    out = []
    for t in sorted(set(degrees), reverse=True):
        maps = [induced_on_homology(K, K, c, t, t + ring.generators[i].degree,
                                    lambda i=i: K.action(i, c, t)).transpose()
                for i in odd]
        out += [t] * (maps[0].rows - rank(reduce(SparseMatrix.hstack, maps)))
    return out


def gorenstein_certificate(ring: GradedRing, w: Window) -> GorensteinCertificate:
    """Whether R is Gorenstein, with its Krull dimension n and shift nu,
    H^n_m(R)_t = dim R_{nu + n - t}; exact, and w only bounds the degrees of
    a False verdict's nonvanishing H^i_m(R).

    R is finite over the polynomial ring P = k[x_1..x_N] on its even
    generators, and the verdict is read off the minimal free resolution F of
    R over P: R is Gorenstein iff it is Cohen-Macaulay, pd_P R = c = N - n
    (Auslander-Buchsbaum), and omega = Ext^c_P(R, P) is free of rank one
    over R (Bruns-Herzog 3.3.7), i.e. the odd generators' common kernel on
    Tor_c^P(R, k), dual to omega / m omega, is one line (_odd_kernel); without
    an odd generator, the last Betti number is 1.  Then nu = the sum of the
    even generators' weights - n + the degree of that line, which the
    witness names as last_degree, with pd_P R.  A False verdict
    names pd_P R, the last Betti rank and degrees, the kernel's dimension
    (the type) when pd_P R = c, and the nonzero H^i_m(R), i != n, on w."""
    n = ring.krull_dim()
    P = ring.polynomial
    R = GradedModule.free_module(ring, [0], name=ring.name)
    res = minimal_free_resolution(_restrict(R), P.n)
    pd = max(i for i, st in enumerate(res.stages) if st.rank)
    last = res.stages[pd].gen_degrees
    kernel = _odd_kernel(ring, pd, last) if pd == P.n - n else None
    if kernel is not None and len(kernel) == 1:
        return GorensteinCertificate(
            ring.name, True, n, sum(P.weights) - n + kernel[0],
            witness={"projective_dimension": pd, "last_degree": kernel[0]})
    lc = _resolution_duality_table(res, maximal_ideal(ring), w)
    failure = {"projective_dimension": pd, "last_betti": len(last),
               "last_degrees": list(last), "nonvanishing": {
                   k: v for k, v in lc.entries.items() if k[0] != n}}
    if kernel is not None:
        failure["type"] = len(kernel)
    return GorensteinCertificate(ring.name, False, n, failure=failure)


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


def _require_certified(cert: GorensteinCertificate, refusal: str) -> None:
    """Refuse, with refusal, a ring its certificate says is not Gorenstein."""
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
