"""The benchmark's seeded workloads: inputs, operations and output checks.

Each workload builds a list of `Op`s from a seed.  One round runs every op
once, in order.  `prepare` makes fresh arguments outside the timed region,
`call` is the timed operation, and `check` inspects its output outside the
timed region and returns an error message or None.

The checks never compare against stored output of the program.  They test
required mathematical properties or recompute a value independently (Hilbert
functions are counted here from standard monomials).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Mono = Tuple[int, ...]


@dataclass
class Op:
    label: str
    prepare: Callable[[], tuple]
    call: Callable[..., object]
    check: Callable[[object], Optional[str]]


# independent Hilbert functions -------------------------------------------------


def monomials(nvars: int, weight: int):
    """Exponent vectors of total degree `weight` in nvars variables."""
    if weight < 0:
        return
    for combo in itertools.combinations_with_replacement(range(nvars), weight):
        m = [0] * nvars
        for i in combo:
            m[i] += 1
        yield m


def in_ideal(m: Sequence[int], ideal: Sequence[Mono]) -> bool:
    return any(all(a >= b for a, b in zip(m, g)) for g in ideal)


def cyclic_hilbert(nvars: int, ideal: Sequence[Mono], gen_degree: int, t: int) -> int:
    """dim_t of (F[x_1..x_n]/ideal)(gen_degree) with variables in degree -1:
    the monomials of total degree gen_degree - t outside the monomial ideal."""
    return sum(1 for m in monomials(nvars, gen_degree - t) if not in_ideal(m, ideal))


def mono_text(names: Sequence[str], m: Mono) -> str:
    return "*".join(f"{n}^{e}" if e > 1 else n for n, e in zip(names, m) if e)


# recollement -------------------------------------------------------------------

RECOLLEMENT_WINDOW = (-6, 6)
# F2[x,y] and quotients the acceptance suite uses.  F2[x,y]/(xy) is left
# out: its checks take 2.5 to 6 s for every cyclic module, between the slots.
RECOLLEMENT_RINGS = {"R": [], "Q1": ["y^2"], "Q2": ["x^3"], "Q4": ["x^2", "y^3"]}
# The seed draws (ring, relations) presentations from each slot's pool, and
# a generator degree of 0 or -1 for each; a round has one op per draw.  The
# pools group modules whose checks cost about the same, so the cost of a
# round, and which slot's op is the median, do not depend on the seed.  The
# free F2[x,y]-module is left out: its check alone takes about 50 s.
RECOLLEMENT_SLOTS: List[Tuple[List[Tuple[str, Tuple[str, ...]]], int]] = [
    # finite length over a quotient ring, about 1 s
    ([("Q1", ("x^2",)), ("Q1", ("x^3",)), ("Q2", ("y^2",)), ("Q2", ("y^3",)),
      ("Q4", ()), ("Q4", ("x^2*y",))], 1),
    # finite length over F2[x,y], about 2 s; all three every round, so the
    # median op of a run is always the middle one of this slot's ops
    ([("R", ("x^2", "y^2")), ("R", ("x^2", "y^3")), ("R", ("x^3", "y^2"))], 3),
    # Krull dimension one over F2[x,y], about 6 s
    ([("R", ("x^2",)), ("R", ("y^2",))], 1),
]
RECOLLEMENT_KEYS = ("gamma_idempotent", "localization_idempotent",
                    "lambda_gamma_is_lambda", "gamma_lambda_is_gamma",
                    "lambda_L_is_shift_delta_gamma", "adjunction")


def check_recollement_report(rep) -> Optional[str]:
    missing = [k for k in RECOLLEMENT_KEYS if k not in rep]
    if missing:
        return f"report lacks {missing}"
    false = [k for k, v in rep.items() if isinstance(v, bool) and not v]
    if false:
        return f"false checks {false}"
    if not rep["fracture"]["exact"]:
        return "fracture square not exact"
    if rep["all"] is not True:
        return "all is not true"
    return None


def recollement(pkg, seed: int, toy: bool = False) -> List[Op]:
    graded, torsion = pkg.graded, pkg.torsion
    base = graded.GradedRing(2, [("x", -1), ("y", -1)], [], name="R")
    rings = {name: base.quotient([base.parse(r) for r in rels], name=name)
             if rels else base for name, rels in RECOLLEMENT_RINGS.items()}
    lo, hi = (-3, 3) if toy else RECOLLEMENT_WINDOW
    w = graded.Window(lo, hi)
    rng = random.Random(seed)
    ops = []
    picks = [rng.sample(pool, count) for pool, count in RECOLLEMENT_SLOTS]
    for i, (ring_name, rels) in enumerate(p for pick in picks for p in pick):
        ring = rings[ring_name]
        deg = -rng.randint(0, 1)
        rows = [[r] for r in rels]
        graded.GradedModule(ring, [("a", deg)], rows)   # validate in set-up
        ideal = graded.HomIdeal(ring, [ring.gen_poly(j) for j in range(ring.n)],
                                is_prime_asserted=True, name="m")
        label = f"{ring_name}/({','.join(rels)})[{deg}]"

        def prepare(ring=ring, deg=deg, rows=rows, i=i):
            return (graded.GradedModule(ring, [("a", deg)], rows, name=f"m{i}"),)

        ops.append(Op(label, prepare,
                      lambda mod, ideal=ideal: torsion.check_recollement(mod, ideal, w),
                      check_recollement_report))
    return ops


# corpus_session ----------------------------------------------------------------

SESSION_WINDOW = (-8, 8)
DECLARATIONS = """\
[ring L]
char = 2
generators = x:-1

[ring P]
char = 2
generators = x:-1, y:-1

[ring S]
char = 2
generators = x:-1, y:-1
relations = y^2

[module M]
ring = S
generators = a:{deg}
relation = x^{a}

[ideal mP]
ring = P
generators = x, y

[ideal mS]
ring = S
generators = x, y

[map f]
source = L
target = S
images = x -> x
"""
TIMING_WORDS = (b"time", b"elapsed", b"duration")


def _verdict(expected: Dict[str, object]):
    def check(result):
        got = {k: result.get(k) for k in expected}
        return None if got == expected else f"expected {expected}, got {got}"
    return check


def session_checks(a: int, deg: int, t_lo: int, t_hi: int):
    """Command -> check of its single result, from facts about the inputs.

    S = F2[x,y]/(y^2) and M = S/(x^a) with its generator in degree `deg`.
    x is a nonzerodivisor on S, so M has the free resolution
    0 -> S(deg - a) -> S(deg) -> M -> 0, Tor_0(M, S) = M and
    Hom(M, S) = ann_S(x^a) = 0.
    """
    h_m = {t: cyclic_hilbert(2, [(0, 2), (a, 0)], deg, t)
           for t in range(t_lo, t_hi + 1)}

    def hilbert(nvars, ideal):
        want = {t: cyclic_hilbert(nvars, ideal, 0, t)
                for t in range(t_lo, min(t_hi, 0) + 1)}

        def check(result):
            got = {row["t"]: row["dim"] for row in result["table"]}
            return None if got == want else f"hilbert {got} != {want}"
        return check

    def local_cohomology(result):
        # H^2_m(F2[x,y])_t = t - 1 for t >= 2, H^0 = H^1 = 0
        got = {(r["i"], r["t"]): r["dim"] for r in result["table"] if r["dim"]}
        want = {(2, t): t - 1 for t in range(2, t_hi + 1)}
        low = {k: v for k, v in got.items() if k[0] in (0, 1)}
        top = {k: v for k, v in got.items() if k[0] == 2 and k[1] >= 2}
        return None if not low and top == want else f"lc P {got}"

    def resolve(result):
        want = ([1, 1, 0, 0, 0], [[deg], [deg - a], [], [], []])
        got = (result["ranks"], result["degrees"])
        return None if got == want else f"resolve M {got} != {want}"

    def tor0(result):
        got = {(r["i"], r["t"]): r["dim"] for r in result["table"]}
        want = {(0, t): v for t, v in h_m.items() if v}
        return None if got == want else f"tor M S {got} != {want}"

    def ext0(result):
        return None if not result["table"] else f"ext M S {result['table']}"

    return {
        "hilbert L": hilbert(1, []),
        "hilbert P": hilbert(2, []),
        "hilbert S": hilbert(2, [(0, 2)]),
        "gorenstein L": _verdict({"verdict": True, "krull_dim": 1, "shift": 0}),
        "gorenstein S": _verdict({"verdict": True, "krull_dim": 1, "shift": -1}),
        "lc P mP": local_cohomology,
        "collapse-check M mS": _verdict({"verdict": True}),
        "oracle-check P": _verdict({"verdict": True}),
        "resolve M": resolve,
        "tor M S": tor0,
        "ext M S": ext0,
        "compact-check f": _verdict({"verdict": True}),
        "omega f": _verdict({"invertible": True, "stage": 0, "gen_degree": 1}),
        "bc-check f mS": _verdict({"verdict": True, "mode": "exact"}),
    }


def corpus_session(pkg, seed: int, toy: bool = False) -> List[Op]:
    cli, graded = pkg.cli, pkg.graded
    lo, hi = (-4, 4) if toy else SESSION_WINDOW
    w = graded.Window(lo, hi)
    rng = random.Random(seed)
    a, deg = rng.randint(2, 3), -rng.randint(0, 1)
    decl = DECLARATIONS.format(a=a, deg=deg)
    sessions: List[Tuple[str, str, Callable]] = []
    for entry in cli.corpus():
        expected = {"verdict": entry.gorenstein}
        if entry.krull_dim is not None:
            expected["krull_dim"] = entry.krull_dim
        if entry.shift is not None:
            expected["shift"] = entry.shift
        sessions.append((f"corpus:{entry.name}", entry.text, _verdict(expected)))
    for command, check in session_checks(a, deg, lo, hi).items():
        sessions.append((command, decl + "\n[run]\n" + command + "\n", check))

    def run_session(text):
        spec, diags = cli.parse(text)
        if spec is None:
            return {"diagnostics": [d.as_dict() for d in diags]}, 1
        return cli.run(spec, seed=seed, default_window=w)

    ops = []
    for label, text, check in sessions:
        ops.append(Op(label, lambda text=text: (text,), run_session,
                      _session_check(check)))
    return ops


def _session_check(check):
    first: Dict[str, bytes] = {}

    def checked(out):
        report, code = out
        if code != 0 or report["diagnostics"]:
            return f"exit {code}, diagnostics {report['diagnostics']}"
        blob = json.dumps(report, indent=2, sort_keys=True).encode()
        if any(word in blob for word in TIMING_WORDS):
            return "report carries a timing key"
        if first.setdefault("report", blob) != blob:
            return "report differs between passes with the same seed"
        if len(report["results"]) != 1:
            return f"expected one result, got {len(report['results'])}"
        return check(report["results"][0])
    return checked


# resolve_tor_ext ---------------------------------------------------------------

NVARS = 4
TOR_FLOOR = -10
# Monomial ideals of F2[x0..x3] as exponent vectors.  The seed permutes the
# variables of each, so every seed resolves isomorphic modules of equal cost
# in another presentation.  Their Betti numbers sit in the degrees of lcms of
# generator subsets (Taylor resolution), all >= -6, so the Tor window
# [TOR_FLOOR, 0] holds every Betti number.
M_SHAPE: List[Mono] = [(1, 1, 0, 0), (0, 0, 2, 0), (0, 1, 0, 2)]
N_SHAPE: List[Mono] = [(2, 0, 0, 0), (0, 1, 1, 0)]


def tor_euler_check(table, ideal: Sequence[Mono], t_lo: int, t_hi: int) -> Optional[str]:
    """sum_i (-1)^i dim Tor_i(M, k)_t against the Koszul complex K(x) (x) M,
    whose i-th term in degree t is C(n, i) copies of M_{t+i}."""
    for t in range(t_lo, t_hi + 1):
        lhs = sum((-1) ** i * v for (i, tt), v in table.items() if tt == t)
        rhs = sum((-1) ** i * comb(NVARS, i) * cyclic_hilbert(NVARS, ideal, 0, t + i)
                  for i in range(NVARS + 1))
        if lhs != rhs:
            return f"Euler characteristic at t={t}: Tor gives {lhs}, Koszul {rhs}"
    return None


def ext_checks(table, betti, m_ideal, n_ideal, t_lo, t_hi) -> Optional[str]:
    """Ext(M, N) for cyclic M = S/I, N = S/J, against the Betti numbers
    betti[(i, t')] = dim Tor_i(M, k)_t' and an independent Hom count.

    Hom(F_i, N)_t is the sum of N_{t+t'} over the generators of F_i, so the
    Euler characteristics agree; and Ext^0 = Hom(S/I, S/J) = (J : I) / J.
    """
    for t in range(t_lo, t_hi + 1):
        lhs = sum((-1) ** i * v for (i, tt), v in table.items() if tt == t)
        rhs = sum((-1) ** i * v * cyclic_hilbert(NVARS, n_ideal, 0, t + tp)
                  for (i, tp), v in betti.items())
        if lhs != rhs:
            return f"Euler characteristic at t={t}: Ext gives {lhs}, Betti numbers {rhs}"
        want = sum(1 for m in monomials(NVARS, -t) if not in_ideal(m, n_ideal)
                   and all(in_ideal([a + b for a, b in zip(m, g)], n_ideal)
                           for g in m_ideal))
        if table.get((0, t), 0) != want:
            return f"Ext^0 at t={t}: {table.get((0, t), 0)} != dim (J:I)/J = {want}"
    return None


def ext_residue_check(table, betti) -> Optional[str]:
    """Ext^i(M, k)_t = Hom(Tor_i(M, k), k)_t: the Betti table, degrees negated."""
    want = {(i, -t): v for (i, t), v in betti.items()}
    return None if dict(table) == want else f"Ext(M, k) {dict(table)} != {want}"


def residue_tor_check(table) -> Optional[str]:
    want = {(i, -i): comb(NVARS, i) for i in range(NVARS + 1)}
    return None if dict(table) == want else f"Tor(k, k) {dict(table)} != {want}"


def resolve_tor_ext(pkg, seed: int, toy: bool = False) -> List[Op]:
    graded = pkg.graded
    names = [f"x{i}" for i in range(NVARS)]
    ring = graded.GradedRing(2, [(n, -1) for n in names], [], name="S")
    floor = -6 if toy else TOR_FLOOR
    tor_w = graded.Window(floor, 0, 0, NVARS)
    ext_w = graded.Window(floor, -floor, 0, NVARS)
    rng = random.Random(seed)

    def permuted(shape):
        perm = list(range(NVARS))
        rng.shuffle(perm)
        return [tuple(m[perm[j]] for j in range(NVARS)) for m in shape]

    m_ideal, n_ideal = permuted(M_SHAPE), permuted(N_SHAPE)

    def module(ideal):
        rows = [[mono_text(names, m)] for m in ideal]
        return lambda: graded.GradedModule(ring, [("a", 0)], rows)

    def residue():
        return graded.GradedModule.residue_field(ring)

    M, N = module(m_ideal), module(n_ideal)
    M(), N()    # validate in set-up
    betti = {}      # Tor(M, k) of the round, for the Ext checks after it

    def check_tor_m(table):
        betti["M"] = table
        return tor_euler_check(table, m_ideal, tor_w.t_lo, tor_w.t_hi)

    def tor(a, b):
        return graded.tor(a, b, tor_w)

    def ext(a, b):
        return graded.ext(a, b, ext_w)

    return [
        Op("tor(k,k)", lambda: (residue(), residue()), tor, residue_tor_check),
        Op("tor(M,k)", lambda: (M(), residue()), tor, check_tor_m),
        Op("ext(M,k)", lambda: (M(), residue()), ext,
           lambda t: ext_residue_check(t, betti["M"])),
        Op("ext(M,N)", lambda: (M(), N()), ext,
           lambda t: ext_checks(t, betti["M"], m_ideal, n_ideal,
                                ext_w.t_lo, ext_w.t_hi)),
        Op("tor(N,k)", lambda: (N(), residue()), tor,
           lambda t: tor_euler_check(t, n_ideal, tor_w.t_lo, tor_w.t_hi)),
    ]


WORKLOADS = {"recollement": recollement, "corpus_session": corpus_session,
             "resolve_tor_ext": resolve_tor_ext}
