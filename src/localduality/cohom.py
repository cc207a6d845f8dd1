"""Local cohomology, local homology, Cech cohomology, and the
Grothendieck-duality oracle.

Tables are cohomologically indexed: ``H^i`` is stored with ``i >= 0`` and
corresponds to homological block ``s = -i`` of the torsion functor's model,
so an entry ``(i, t)`` contributes to total homotopy degree ``n = t - i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .exactla import ContractViolation
from .graded import (GradedModule, HomIdeal, Window, hilbert_function,
                     maximal_ideal, minimal_free_resolution)
from .complexes import (complex_element_action, direct_sum,
                        induced_on_homology, module_complex, shift)
from .torsion import (FunctorResult, default_s_max, gamma, completion,
                      _ideal_data)

Entry = Tuple[int, int]  # (cohomological index i, internal degree t)


@dataclass
class CohomologyTable:
    """Map (i, t) -> dimension with per-entry flags and provenance."""

    entries: Dict[Entry, int]
    flags: Dict[Entry, str] = field(default_factory=dict)
    provenance: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        self.entries = {k: v for k, v in self.entries.items() if v}
        for (i, _t) in self.entries:
            if i < 0:
                raise ContractViolation("cohomological index must be >= 0")
        bound = self.provenance.get("koszul_bound")
        if bound is not None:
            for (i, _t) in self.entries:
                if i > bound:
                    raise ContractViolation(
                        f"H^{i} nonzero beyond the Koszul bound {bound}")

    def dim(self, i: int, t: int) -> int:
        return self.entries.get((i, t), 0)

    def max_index(self) -> int:
        return max((i for (i, _t) in self.entries), default=0)

    def to_rows(self) -> List[Dict[str, object]]:
        rows = []
        for (i, t) in sorted(set(self.entries) | set(self.flags)):
            rows.append({"i": i, "t": t, "dim": self.entries.get((i, t), 0),
                         "flag": self.flags.get((i, t), "stable")})
        return rows


def cohomology_table(g: FunctorResult, p: HomIdeal) -> CohomologyTable:
    """H^i_p read off the torsion result g = Gamma_p: block s = -i."""
    entries = {(-s, t): v for (s, t), v in g.homotopy.items()}
    flags = {(-s, t): "unstable" for (s, t) in g.flags}
    return CohomologyTable(entries, flags, {
        "functor": "local_cohomology", "ideal": p.name,
        "stage": g.provenance.get("stage"), "koszul_bound": len(p.gens)})


def local_cohomology(mod: GradedModule, p: HomIdeal, w: Window,
                     s_max: Optional[int] = None) -> CohomologyTable:
    """H^i_p(mod)_t on w.

    At a maximal ideal, by graded local duality over the polynomial ring on
    the ring's even generators (duality._duality_table): exact, with no
    flag, and s_max is not read.  Elsewhere via the stabilized torsion
    tower, capped at s_max stages."""
    if p.is_maximal():
        from .duality import _duality_table
        return _duality_table(mod, p, w)
    return cohomology_table(gamma(mod, p, w, s_max), p)


def local_homology(mod: GradedModule, p: HomIdeal, w: Window,
                   s_max: Optional[int] = None) -> CohomologyTable:
    """H^p_s(mod)_t via the stabilized completion tower (s stored as i)."""
    lam = completion(mod, p, w, s_max)
    bound = len(p.gens)
    entries = {(s, t): v for (s, t), v in lam.homotopy.items() if s >= 0}
    flags = {(s, t): "unstable" for (s, t) in lam.flags if s >= 0}
    return CohomologyTable(entries, flags, {
        "functor": "local_homology", "ideal": p.name,
        "stage": lam.provenance.get("stage"), "koszul_bound": bound})


def cech_cohomology(mod: GradedModule, p: HomIdeal, w: Window,
                    s_max: Optional[int] = None) -> CohomologyTable:
    """Cech cohomology of the module from the torsion long exact sequence.

    0 -> H^0_p -> M -> CH^0 -> H^1_p -> 0 and CH^i = H^{i+1}_p for i >= 1.
    """
    lc = local_cohomology(mod, p, w, s_max)
    hf = hilbert_function(mod, w)
    entries: Dict[Entry, int] = {}
    flags: Dict[Entry, str] = {}
    for t in w.t_range():
        d = hf.get(t, 0) - lc.dim(0, t) + lc.dim(1, t)
        if d:
            entries[(0, t)] = d
        for key in ((0, t), (1, t)):
            if key in lc.flags:
                flags[(0, t)] = "unstable"
    for (i, t), v in lc.entries.items():
        if i >= 2:
            entries[(i - 1, t)] = v
    for (i, t), f in lc.flags.items():
        if i >= 2:
            flags[(i - 1, t)] = f
    bound = max(0, len(p.gens) - 1)
    return CohomologyTable(entries, flags, {
        "functor": "cech_cohomology", "ideal": p.name,
        "koszul_bound": max(bound, lc.max_index())})


def cech_les_balance(mod: GradedModule, p: HomIdeal, w: Window) -> bool:
    """Alternating-sum identity of M, H^*_p, CH^* in every internal degree."""
    lc = local_cohomology(mod, p, w)
    ch = cech_cohomology(mod, p, w)
    hf = hilbert_function(mod, w)
    flagged_t = {t for (_i, t) in list(lc.flags) + list(ch.flags)}
    for t in w.t_range():
        if t in flagged_t:
            continue
        euler_h = sum(((-1) ** i) * v for (i, tt), v in lc.entries.items()
                      if tt == t)
        euler_c = sum(((-1) ** i) * v for (i, tt), v in ch.entries.items()
                      if tt == t)
        # LES Gamma -> id -> L: chi(CH) = chi(M) - chi(H) with
        # cohomological signs: CH^0 - CH^1 + ... = M - (H^0 - H^1 + ...)
        if euler_c != hf.get(t, 0) - euler_h:
            return False
    return True


def _parts(m: Union[GradedModule, Sequence[Tuple[GradedModule, int]]]
           ) -> List[Tuple[GradedModule, int]]:
    if isinstance(m, GradedModule):
        return [(m, 0)]
    return [(mod, sh) for (mod, sh) in m]


def collapse_check(m: Union[GradedModule, Sequence[Tuple[GradedModule, int]]],
                   p: HomIdeal, w: Window,
                   s_max: Optional[int] = None) -> Dict[str, object]:
    """Collapse identity for formal inputs.

    For m a direct sum of shifted modules, verifies
    dim pi_n(Gamma_V(p) m) = sum_i dim (H^i_p(pi_* m))_{n+i} at every
    interior n.  Both pipelines are run independently: the left side
    applies the torsion functor to the assembled complex, the right side
    computes module-level local cohomology summand by summand.
    """
    parts = _parts(m)
    s_max = s_max or default_s_max(w)
    _, tw = _ideal_data(p)
    c = len(p.gens)
    floor = w.t_lo - s_max * tw - 1

    pieces = []
    for mod, sh in parts:
        piece = module_complex(mod, Window(min(floor, mod.top_degree),
                                           max(w.t_hi, mod.top_degree)))
        pieces.append(shift(piece, sh))
    X = pieces[0]
    for piece in pieces[1:]:
        X = direct_sum(X, piece)

    g = gamma(X, p, w, s_max)
    left = {}
    for (s, t), val in g.homotopy.items():
        n = s + t
        left[n] = left.get(n, 0) + val

    right: Dict[int, int] = {}
    flagged_n = {s + t for (s, t) in g.flags}
    lo = w.t_lo
    hi = w.t_hi
    for mod, sh in parts:
        lc = local_cohomology(mod, p, w, s_max)
        for (i, t), val in lc.entries.items():
            n = (t + sh) - i
            right[n] = right.get(n, 0) + val
        flagged_n |= {(t + sh) - i for (i, t) in lc.flags}
        lo = max(lo, w.t_lo + sh)
        hi = min(hi, w.t_hi + sh - c)
    interior = [n for n in range(lo, hi + 1) if n not in flagged_n]
    mism = [n for n in interior if left.get(n, 0) != right.get(n, 0)]
    return {"verdict": not mism, "interior": (lo, hi),
            "mismatches": mism,
            "left": {n: left.get(n, 0) for n in interior if left.get(n, 0)},
            "right": {n: right.get(n, 0) for n in interior if right.get(n, 0)}}


def torsionness_check(mod: GradedModule, p: HomIdeal, w: Window,
                      s_max: Optional[int] = None) -> Dict[str, object]:
    """Every local-cohomology class is killed by a power of p.

    Follows each ideal generator's induced action on the homology of the
    torsion model down the window until the composite vanishes.  A class
    whose orbit leaves the window first is reported as unchecked rather
    than asserted, and the verdict is then None (undetermined).
    """
    g = gamma(mod, p, w, s_max)
    model = g.model
    ring = mod.ring
    checked = 0
    unchecked = 0
    for q in p.gens:
        dq = ring.poly_degree(q)
        for (s, t), val in g.homotopy.items():
            if (s, t) in g.flags or not val:
                continue
            comp = None
            tt = t
            while tt + dq >= w.t_lo:
                step = induced_on_homology(
                    model, model, s, tt, tt + dq,
                    lambda: complex_element_action(model, q, s, tt))
                comp = step if comp is None else step @ comp
                tt += dq
                if not comp.entries:
                    checked += 1
                    break
            else:
                unchecked += 1
    return {"verdict": None if unchecked else True, "checked": checked,
            "unchecked": unchecked}


def grothendieck_vanishing(table: CohomologyTable,
                           krull_dim: int) -> bool:
    """H^i = 0 for i above the Krull dimension (unflagged entries)."""
    return all(i <= krull_dim or (i, t) in table.flags
               for (i, t) in table.entries)


def grothendieck_oracle(mod: GradedModule, w: Window,
                        certificate=None) -> CohomologyTable:
    """Independent oracle: H^i_m(mod) as the shifted dual of Ext.

    Over a certified Gorenstein ring with Krull dimension n and shift nu,
    classical graded local duality gives
    H^i_m(M)_t = Ext^{n-i}(M, R)_{nu + n - t}, which only needs finite-rank
    free resolutions and is exact in the window.
    """
    ring = mod.ring
    from .duality import _require_certified, gorenstein_certificate
    if certificate is None:
        certificate = gorenstein_certificate(ring, w)
    _require_certified(
        certificate, f"ring {ring.name} is not certified Gorenstein; no Ext oracle")
    n = certificate.krull_dim
    nu = certificate.shift
    from .graded import ext as graded_ext
    Rmod = GradedModule.free_module(ring, [0], name=ring.name)
    tlo = nu + n - w.t_hi
    thi = nu + n - w.t_lo
    table = graded_ext(mod, Rmod, Window(tlo, thi, 0, max(n, 0)))
    entries: Dict[Entry, int] = {}
    for (j, tt), val in table.items():
        i = n - j
        t = nu + n - tt
        if 0 <= i and w.t_lo <= t <= w.t_hi:
            entries[(i, t)] = val
    return CohomologyTable(entries, {}, {
        "functor": "grothendieck_oracle", "gorenstein_shift": nu,
        "krull_dim": n, "koszul_bound": max(n, ring.n)})


def oracle_agreement(mod: GradedModule, w: Window,
                     certificate=None) -> Dict[str, object]:
    """The Koszul tower's H^*_m(mod) (cohomology_table(gamma(...))) against
    the Ext-over-R oracle at every unflagged bidegree.

    Neither side reads local_cohomology's duality table over the ambient
    polynomial ring, so the check stays independent of it."""
    mx = maximal_ideal(mod.ring)
    lc = cohomology_table(gamma(mod, mx, w), mx)
    oracle = grothendieck_oracle(mod, w, certificate)
    keys = {k for k in set(lc.entries) | set(oracle.entries)
            if w.t_lo <= k[1] <= w.t_hi and k not in lc.flags}
    mism = {k: (lc.dim(*k), oracle.dim(*k)) for k in keys
            if lc.dim(*k) != oracle.dim(*k)}
    return {"verdict": not mism, "mismatches": mism,
            "stable_entries": len(keys)}


def generic_ext_ranks(mod: GradedModule, p: HomIdeal,
                      length: int) -> Dict[int, int]:
    """kappa(p)-ranks of Ext^j(mod, R) at the generic point of V(p).

    Read off Hom(F, R) (x) kappa(p) for a minimal free resolution F of mod:
    in index j, dim F_j minus the ranks over Frac(R/p) of the differentials
    out of and into F_j (HomIdeal.generic_rank).  Exact: no point of V(p)
    is chosen.
    """
    res = minimal_free_resolution(mod, length + 1)
    ranks = []
    for i, diff in enumerate(res.diffs):
        rows = [[{} for _ in range(res.stages[i + 1].rank)]
                for _ in range(res.stages[i].rank)]
        for (a, b), q in diff.items():
            rows[a][b] = q
        ranks.append(p.generic_rank(rows))
    out: Dict[int, int] = {}
    for j in range(length + 1):
        r = res.stages[j].rank - ranks[j] - (ranks[j - 1] if j else 0)
        if r:
            out[j] = r
    return out
