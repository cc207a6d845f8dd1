"""Declarative input format, command dispatch and JSON reports.

Input files are line-oriented with sections ``[ring NAME]``, ``[module NAME]``,
``[ideal NAME]``, ``[map NAME]``, ``[window NAME]`` and ``[run]``.  Degrees are
given in the homological convention (generators strictly negative); a leading
``convention = cohomological`` line negates all declared degrees on input.
Polynomials are ASCII with ``^`` powers and ``*`` products.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Tuple

from .exactla import ContractViolation
from .graded import (GradedModule, GradedRing, HomIdeal, Window,
                     dual_hilbert_function, hilbert_function,
                     minimal_free_resolution, tor, ext)
from .complexes import homology
from .torsion import (check_recollement, delta, gamma,
                      completion, koszul_object, localize_away,
                      local_to_global_acyclicity, tate)
from .cohom import (cech_cohomology, collapse_check, local_cohomology,
                    local_homology, oracle_agreement)
from .duality import (GorensteinCertificate, absolute_gorenstein_check,
                      dual_localize, gorenstein_certificate, injective_hull,
                      orthogonality_check, twist_check)
from .relative import (RingMap, compactness_certificate, dualizing_module,
                       theorem_bc_check, transitivity_check)

VERSION = "0.2.0"


# parsing ---------------------------------------------------------------------


@dataclass
class Diagnostic:
    line: int
    message: str

    def as_dict(self) -> Dict[str, object]:
        return {"line": self.line, "message": self.message}


@dataclass
class SessionSpec:
    convention: str = "homological"
    rings: Dict[str, Dict] = dc_field(default_factory=dict)
    modules: Dict[str, Dict] = dc_field(default_factory=dict)
    ideals: Dict[str, Dict] = dc_field(default_factory=dict)
    maps: Dict[str, Dict] = dc_field(default_factory=dict)
    windows: Dict[str, Tuple[int, int]] = dc_field(default_factory=dict)
    commands: List[Tuple[int, List[str]]] = dc_field(default_factory=list)


def parse(text: str) -> Tuple[Optional[SessionSpec], List[Diagnostic]]:
    spec = SessionSpec()
    diags: List[Diagnostic] = []
    section: Optional[Tuple[str, str]] = None
    body: Dict[str, object] = {}
    order: List[Tuple[Tuple[str, str], Dict, int]] = []

    def close():
        nonlocal body
        if section is not None:
            order.append((section, body, sec_line))
        body = {}

    sec_line = 0
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                diags.append(Diagnostic(ln, f"malformed section header {line!r}"))
                continue
            close()
            parts = line[1:-1].split()
            kind = parts[0].lower()
            if kind == "run":
                section = ("run", "")
            elif kind in ("ring", "module", "ideal", "map", "window") \
                    and len(parts) == 2:
                section = (kind, parts[1])
            else:
                diags.append(Diagnostic(ln, f"unknown section {line!r}"))
                section = None
            sec_line = ln
            continue
        if section is None:
            if "=" in line:
                key, val = [x.strip() for x in line.split("=", 1)]
                if key == "convention":
                    if val not in ("homological", "cohomological"):
                        diags.append(Diagnostic(ln, f"unknown convention {val!r}"))
                    else:
                        spec.convention = val
                    continue
            diags.append(Diagnostic(ln, f"statement outside any section: {line!r}"))
            continue
        if section[0] == "run":
            spec.commands.append((ln, line.split()))
            continue
        if "=" not in line:
            diags.append(Diagnostic(ln, f"expected key = value, got {line!r}"))
            continue
        key, val = [x.strip() for x in line.split("=", 1)]
        if key == "relation":
            body.setdefault("relations_rows", []).append((ln, val))
        else:
            body[key] = (ln, val)
    close()

    sign = -1 if spec.convention == "cohomological" else 1

    for (kind, name), data, ln0 in order:
        if kind == "ring":
            gens: List[Tuple[str, int]] = []
            ok = True
            char_ln, char_txt = data.get("char", (ln0, ""))
            try:
                char = int(char_txt)
            except ValueError:
                diags.append(Diagnostic(char_ln, f"ring {name}: bad characteristic"))
                ok = False
                char = 0
            g_ln, g_txt = data.get("generators", (ln0, ""))
            for piece in filter(None, [x.strip() for x in g_txt.split(",")]):
                if ":" not in piece:
                    diags.append(Diagnostic(g_ln, f"ring {name}: generator "
                                                  f"{piece!r} needs name:degree"))
                    ok = False
                    continue
                parts_g = [x.strip() for x in piece.split(":")]
                gname, dtxt = parts_g[0], parts_g[1]
                odd = len(parts_g) > 2 and parts_g[2].lower() == "odd"
                if len(parts_g) > 2 and not odd:
                    diags.append(Diagnostic(g_ln, f"ring {name}: unknown "
                                                  f"flag {parts_g[2]!r}"))
                    ok = False
                    continue
                try:
                    deg = sign * int(dtxt)
                except ValueError:
                    diags.append(Diagnostic(g_ln, f"ring {name}: bad degree {dtxt!r}"))
                    ok = False
                    continue
                if deg >= 0:
                    diags.append(Diagnostic(
                        g_ln, f"ring {name}: connectedness violated — "
                              f"generator {gname} has degree {deg}"))
                    ok = False
                    continue
                gens.append((gname, deg, odd))
            r_ln, r_txt = data.get("relations", (ln0, ""))
            rels = [x.strip() for x in r_txt.split(",") if x.strip()]
            if ok:
                spec.rings[name] = {"char": char, "generators": gens,
                                    "relations": rels, "line": ln0,
                                    "rel_line": r_ln}
        elif kind == "module":
            ring_ln, ring_name = data.get("ring", (ln0, ""))
            g_ln, g_txt = data.get("generators", (ln0, ""))
            gens = []
            for piece in filter(None, [x.strip() for x in g_txt.split(",")]):
                if ":" not in piece:
                    diags.append(Diagnostic(g_ln, f"module {name}: generator "
                                                  f"{piece!r} needs name:degree"))
                    continue
                gname, dtxt = [x.strip() for x in piece.split(":", 1)]
                try:
                    gens.append((gname, sign * int(dtxt)))
                except ValueError:
                    diags.append(Diagnostic(g_ln, f"module {name}: bad degree"))
            rows = [(ln, [c.strip() for c in val.split("|")])
                    for ln, val in data.get("relations_rows", [])]
            spec.modules[name] = {"ring": ring_name, "ring_line": ring_ln,
                                  "generators": gens, "relations": rows,
                                  "line": ln0}
        elif kind == "ideal":
            ring_ln, ring_name = data.get("ring", (ln0, ""))
            g_ln, g_txt = data.get("generators", (ln0, ""))
            gens = [x.strip() for x in g_txt.split(",") if x.strip()]
            prime = data.get("prime", (ln0, "no"))[1].lower() in ("yes", "true", "1")
            spec.ideals[name] = {"ring": ring_name, "ring_line": ring_ln,
                                 "generators": gens, "gen_line": g_ln,
                                 "prime": prime, "line": ln0}
        elif kind == "map":
            s_ln, src = data.get("source", (ln0, ""))
            t_ln, tgt = data.get("target", (ln0, ""))
            i_ln, itxt = data.get("images", (ln0, ""))
            images = []
            for piece in filter(None, [x.strip() for x in itxt.split(",")]):
                if "->" not in piece:
                    diags.append(Diagnostic(i_ln, f"map {name}: image {piece!r} "
                                                  f"needs gen -> element"))
                    continue
                gname, val = [x.strip() for x in piece.split("->", 1)]
                images.append((gname, val))
            spec.maps[name] = {"source": src, "target": tgt, "images": images,
                               "line": ln0, "src_line": s_ln, "tgt_line": t_ln,
                               "img_line": i_ln}
        elif kind == "window":
            w_ln, w_txt = data.get("range", (ln0, ""))
            try:
                lo, hi = [int(x) for x in w_txt.split(":")]
                spec.windows[name] = (min(lo, hi), max(lo, hi))
            except ValueError:
                diags.append(Diagnostic(w_ln, f"window {name}: bad range {w_txt!r}"))
    if diags:
        return None, diags
    return spec, diags


# environment -----------------------------------------------------------------


class CommandError(Exception):
    """A session command the user got wrong; reported as a diagnostic."""


class Environment:
    """Spec names resolved to live objects, with positioned diagnostics."""

    def __init__(self, spec: SessionSpec):
        self.spec = spec
        self.rings: Dict[str, GradedRing] = {}
        self.modules: Dict[str, GradedModule] = {}
        self.ideals: Dict[str, HomIdeal] = {}
        self.maps: Dict[str, RingMap] = {}
        self.diags: List[Diagnostic] = []
        self._certificates: Dict[Tuple[GradedRing, Window],
                                 GorensteinCertificate] = {}
        for name, data in spec.rings.items():
            try:
                base = GradedRing(data["char"], data["generators"], [],
                                  name=name)
                if data["relations"]:
                    rels = [base.parse(r) for r in data["relations"]]
                    self.rings[name] = base.quotient(rels, name=name)
                else:
                    self.rings[name] = base
            except (ContractViolation, ValueError) as e:
                self.diags.append(Diagnostic(data["line"], f"ring {name}: {e}"))
        for name, data in spec.modules.items():
            ring = self.rings.get(data["ring"])
            if ring is None:
                self.diags.append(Diagnostic(
                    data["ring_line"], f"module {name}: undefined ring "
                                       f"{data['ring']}"))
                continue
            try:
                rows = [row for _, row in data["relations"]]
                self.modules[name] = GradedModule(ring, data["generators"],
                                                  rows, name=name)
            except (ContractViolation, ValueError) as e:
                self.diags.append(Diagnostic(data["line"], f"module {name}: {e}"))
        for name, data in spec.ideals.items():
            ring = self.rings.get(data["ring"])
            if ring is None:
                self.diags.append(Diagnostic(
                    data["ring_line"], f"ideal {name}: undefined ring "
                                       f"{data['ring']}"))
                continue
            try:
                gens = [ring.parse(g) for g in data["generators"]]
                self.ideals[name] = HomIdeal(ring, gens,
                                             is_prime_asserted=data["prime"],
                                             name=name)
            except (ContractViolation, ValueError) as e:
                self.diags.append(Diagnostic(data["gen_line"],
                                             f"ideal {name}: {e}"))
        for name, data in spec.maps.items():
            src = self.rings.get(data["source"])
            tgt = self.rings.get(data["target"])
            if src is None:
                self.diags.append(Diagnostic(data["src_line"],
                                             f"map {name}: undefined ring "
                                             f"{data['source']}"))
                continue
            if tgt is None:
                self.diags.append(Diagnostic(data["tgt_line"],
                                             f"map {name}: undefined ring "
                                             f"{data['target']}"))
                continue
            by_name = dict(data["images"])
            try:
                images = [by_name[g.name] for g in src.generators]
            except KeyError as e:
                self.diags.append(Diagnostic(data["img_line"],
                                             f"map {name}: missing image for "
                                             f"generator {e.args[0]}"))
                continue
            try:
                self.maps[name] = RingMap(src, tgt, images, name=name)
            except ContractViolation as e:
                self.diags.append(Diagnostic(data["line"], f"map {name}: {e}"))

    def module_or_ring(self, name: str) -> GradedModule:
        if name in self.modules:
            return self.modules[name]
        if name in self.rings:
            ring = self.rings[name]
            return GradedModule.free_module(ring, [0], name=name)
        raise CommandError(f"undefined module {name}")

    def ideal(self, name: str) -> HomIdeal:
        if name not in self.ideals:
            raise CommandError(f"undefined ideal {name}")
        return self.ideals[name]

    def ring(self, name: str) -> GradedRing:
        if name not in self.rings:
            raise CommandError(f"undefined ring {name}")
        return self.rings[name]

    def ring_map(self, name: str) -> RingMap:
        if name not in self.maps:
            raise CommandError(f"undefined map {name}")
        return self.maps[name]

    def certificate(self, ring: GradedRing, w: Window) -> GorensteinCertificate:
        """gorenstein_certificate(ring, w), computed once per session."""
        key = (ring, w)
        if key not in self._certificates:
            self._certificates[key] = gorenstein_certificate(ring, w)
        return self._certificates[key]


# report helpers --------------------------------------------------------------


def _table_rows(table: Dict[Tuple[int, int], int],
                flags=()) -> List[Dict[str, object]]:
    rows = []
    flagged = set(flags)
    for (s, t) in sorted(set(table) | flagged):
        v = table.get((s, t))
        rows.append({"i": -s, "t": t,
                     "dim": v if (s, t) not in flagged else None,
                     "flag": "stable" if (s, t) not in flagged else "unstable"})
    return [r for r in rows if r["dim"] or r["flag"] != "stable"]


def _dim_rows(dims: Dict[int, int]) -> List[Dict[str, object]]:
    return [{"t": t, "dim": d} for t, d in sorted(dims.items()) if d]


# command dispatch ------------------------------------------------------------


def _parse_kv(args: List[str]) -> Tuple[List[str], Dict[str, str]]:
    pos, kv = [], {}
    for a in args:
        if "=" in a and not a.startswith("-"):
            k, v = a.split("=", 1)
            kv[k] = v
        else:
            pos.append(a)
    return pos, kv


class Runner:
    def __init__(self, env: Environment, default_window: Window,
                 s_max: Optional[int] = None):
        self.env = env
        self.default_window = default_window
        self.s_max = s_max

    def window(self, args: List[str], *names: str) -> Tuple[List[str], Window]:
        """Check that the positional arguments `names` are present, the last
        any number of times if it ends in "...", and consume a trailing
        window argument (a [window] name or LO:HI); refuse any other word."""
        want = len(names)
        usage = " ".join(f"<{n}>" for n in names) + " [window]"
        if len(args) < want:
            raise CommandError("missing argument: expected " + usage)
        w = self.default_window
        if len(args) > want:
            tail = args[-1]
            if tail in self.env.spec.windows:
                args, w = args[:-1], Window(*self.env.spec.windows[tail])
            else:
                try:
                    lo, hi = [int(x) for x in tail.split(":")]
                    args, w = args[:-1], Window(min(lo, hi), max(lo, hi))
                except ValueError:
                    pass
        if len(args) > want and not names[-1].endswith("..."):
            raise CommandError(f"unexpected argument {args[want]!r}: expected "
                               f"{usage}, a window being a [window] name or "
                               "LO:HI")
        return args, w

    def run_command(self, words: List[str]) -> Dict[str, object]:
        cmd, *rest = words
        assertion = cmd.startswith("assert-")
        base = cmd[len("assert-"):] if assertion else cmd
        handler = getattr(self, "cmd_" + base.replace("-", "_"), None)
        if handler is None:
            raise CommandError(f"unknown command {cmd}")
        pos, kv = _parse_kv(rest)
        result = handler(pos, kv)
        result["command"] = " ".join(words)
        if assertion:
            result["assertion"] = True
        return result

    # tables ------------------------------------------------------------------

    def cmd_hilbert(self, pos, kv):
        pos, w = self.window(pos, "module")
        m = self.env.module_or_ring(pos[0])
        return {"kind": "hilbert", "name": pos[0],
                "table": _dim_rows(hilbert_function(m, w))}

    def cmd_resolve(self, pos, kv):
        pos, _ = self.window(pos, "module")
        m = self.env.module_or_ring(pos[0])
        try:
            length = int(kv.get("length", "4"))
        except ValueError:
            raise CommandError(f"bad length {kv['length']!r}, "
                               "expected an integer") from None
        res = minimal_free_resolution(m.pruned(), length)
        return {"kind": "resolution", "name": pos[0],
                "ranks": [st.rank for st in res.stages],
                "degrees": [list(st.gen_degrees) for st in res.stages]}

    def cmd_tor(self, pos, kv):
        pos, w = self.window(pos, "module", "module")
        a = self.env.module_or_ring(pos[0])
        b = self.env.module_or_ring(pos[1])
        tt = tor(a, b, w)
        return {"kind": "tor", "table": _table_rows({(-p, t): v
                                                     for (p, t), v in tt.items()})}

    def cmd_ext(self, pos, kv):
        pos, w = self.window(pos, "module", "module")
        a = self.env.module_or_ring(pos[0])
        b = self.env.module_or_ring(pos[1])
        tt = ext(a, b, w)
        return {"kind": "ext", "table": _table_rows({(p, t): v
                                                     for (p, t), v in tt.items()})}

    def cmd_koszul(self, pos, kv):
        pos, w = self.window(pos, "module", "elements")
        m = self.env.module_or_ring(pos[0])
        elems = [x for x in pos[1].split(",") if x]
        C = koszul_object(m, elems, w)
        return {"kind": "koszul", "table": _table_rows(homology(C, w))}

    # tower functors ----------------------------------------------------------

    def _functor(self, fn, pos, kind):
        pos, w = self.window(pos, "module", "ideal")
        m = self.env.module_or_ring(pos[0])
        p = self.env.ideal(pos[1])
        r = fn(m, p, w, self.s_max)
        return {"kind": kind, "name": pos[0], "ideal": pos[1],
                "table": _table_rows(r.table(), r.flags),
                "provenance": {k: v for k, v in r.provenance.items()
                               if isinstance(v, (int, str, bool))}}

    def cmd_gamma(self, pos, kv):
        return self._functor(gamma, pos, "gamma")

    def cmd_localize(self, pos, kv):
        return self._functor(localize_away, pos, "localize")

    def cmd_lambda(self, pos, kv):
        return self._functor(completion, pos, "lambda")

    def cmd_delta(self, pos, kv):
        return self._functor(delta, pos, "delta")

    def cmd_tate(self, pos, kv):
        return self._functor(tate, pos, "tate")

    # local (co)homology ------------------------------------------------------

    def cmd_lc(self, pos, kv):
        pos, w = self.window(pos, "module", "ideal")
        m = self.env.module_or_ring(pos[0])
        p = self.env.ideal(pos[1])
        return {"kind": "local_cohomology",
                "table": local_cohomology(m, p, w, self.s_max).to_rows()}

    def cmd_lh(self, pos, kv):
        pos, w = self.window(pos, "module", "ideal")
        m = self.env.module_or_ring(pos[0])
        p = self.env.ideal(pos[1])
        return {"kind": "local_homology",
                "table": local_homology(m, p, w, self.s_max).to_rows()}

    def cmd_cech(self, pos, kv):
        pos, w = self.window(pos, "module", "ideal")
        m = self.env.module_or_ring(pos[0])
        p = self.env.ideal(pos[1])
        return {"kind": "cech",
                "table": cech_cohomology(m, p, w, self.s_max).to_rows()}

    def cmd_collapse_check(self, pos, kv):
        pos, w = self.window(pos, "module", "ideal")
        m = self.env.module_or_ring(pos[0])
        p = self.env.ideal(pos[1])
        rep = collapse_check(m, p, w, self.s_max)
        return {"kind": "collapse-check", "verdict": bool(rep["verdict"]),
                "detail": {k: v for k, v in rep.items()
                           if isinstance(v, (bool, int, str))}}

    def cmd_oracle_check(self, pos, kv):
        pos, w = self.window(pos, "module")
        m = self.env.module_or_ring(pos[0])
        rep = oracle_agreement(m, w, self.env.certificate(m.ring, w))
        return {"kind": "oracle-check", "verdict": bool(rep["verdict"]),
                "stable_entries": rep["stable_entries"]}

    def cmd_recollement_check(self, pos, kv):
        pos, w = self.window(pos, "module", "ideal")
        m = self.env.module_or_ring(pos[0])
        p = self.env.ideal(pos[1])
        rep = check_recollement(m, p, w, self.s_max)
        verdicts = {k: bool(v) for k, v in rep.items()
                    if isinstance(v, bool)}
        return {"kind": "recollement-check", "checks": verdicts,
                "verdict": all(verdicts.values())}

    def cmd_l2g_check(self, pos, kv):
        pos, w = self.window(pos, "module", "prime...")
        m = self.env.module_or_ring(pos[0])
        primes = []
        for a in pos[1:]:
            if ":" in a:
                pname, u = a.split(":", 1)
                primes.append((self.env.ideal(pname), u))
            else:
                primes.append((self.env.ideal(a), None))
        rep = local_to_global_acyclicity(m, primes, w)
        return {"kind": "l2g-check", "verdict": bool(rep["agreement"]),
                "direct_acyclic": bool(rep["direct_acyclic"]),
                "local_acyclic": bool(rep["local_acyclic"])}

    # duality -----------------------------------------------------------------

    def cmd_matlis(self, pos, kv):
        pos, w = self.window(pos, "module")
        m = self.env.module_or_ring(pos[0])
        return {"kind": "matlis", "table": _dim_rows(dual_hilbert_function(m, w))}

    def cmd_ihull(self, pos, kv):
        pos, w = self.window(pos, "ideal")
        p = self.env.ideal(pos[0])
        im = injective_hull(p, w)
        out = {"kind": "ihull", "route": im.route}
        if im.hilbert is not None:
            out["table"] = _dim_rows(im.hilbert)
        if im.kappa_rank is not None:
            out["kappa_rank"] = im.kappa_rank
        return out

    def cmd_dual_localize(self, pos, kv):
        pos, w = self.window(pos, "module", "ideal")
        m = self.env.module_or_ring(pos[0])
        p = self.env.ideal(pos[1])
        # the library computes no certificate at a maximal ideal
        cert = None if p.is_maximal() else self.env.certificate(m.ring, w)
        rep = dual_localize(m, p, w, certificate=cert)
        return {"kind": "dual-localize",
                "ranks": {str(k): v for k, v in rep["ranks"].items()},
                "dimension": rep["dimension_drop"]}

    def cmd_gorenstein(self, pos, kv):
        pos, w = self.window(pos, "ring")
        ring = self.env.ring(pos[0])
        cert = self.env.certificate(ring, w)
        out = {"kind": "gorenstein", "name": pos[0],
               "verdict": cert.verdict, "krull_dim": cert.krull_dim,
               "shift": cert.shift}
        if cert.failure:
            out["witness"] = {f"({i},{t})": v for (i, t), v
                              in cert.failure.get("nonvanishing", {}).items()}
        return out

    def cmd_abs_gorenstein(self, pos, kv):
        pos, w = self.window(pos, "ring", "ideal")
        ring = self.env.ring(pos[0])
        p = self.env.ideal(pos[1])
        rep = absolute_gorenstein_check(ring, p, w, self.env.certificate(ring, w))
        # None (undetermined: the comparison window is empty) stays null
        return {"kind": "abs-gorenstein", "verdict": rep["verdict"],
                "mode": rep["mode"], "shift": rep["shift"],
                "dimension": rep["dimension"]}

    def cmd_twist_check(self, pos, kv):
        pos, w = self.window(pos, "ring", "module", "ideal")
        ring = self.env.ring(pos[0])
        J = None if pos[1] == "0" else self.env.module_or_ring(pos[1])
        p = self.env.ideal(pos[2])
        rep = twist_check(ring, J, p, w)
        return {"kind": "twist-check", "verdict": bool(rep["verdict"]),
                "totals": {str(k): v for k, v in rep["totals"].items()},
                "expected": {str(k): v for k, v in rep["expected"].items()}}

    def cmd_orthogonality(self, pos, kv):
        pos, w = self.window(pos, "ideal", "ideal", "element")
        p = self.env.ideal(pos[0])
        q = self.env.ideal(pos[1])
        rep = orthogonality_check(p, q, pos[2], w)
        return {"kind": "orthogonality", "verdict": bool(rep["verdict"]),
                "flags": rep["flags"]}

    # relative ----------------------------------------------------------------

    def cmd_compact_check(self, pos, kv):
        pos, w = self.window(pos, "map")
        f = self.env.ring_map(pos[0])
        rep = compactness_certificate(f, w)
        return {"kind": "compact-check", "verdict": bool(rep["certified"]),
                "ranks": rep["ranks"], "reason": rep.get("reason")}

    def cmd_omega(self, pos, kv):
        pos, w = self.window(pos, "map")
        f = self.env.ring_map(pos[0])
        om = dualizing_module(f, w)
        out = {"kind": "omega", "map": pos[0],
               "stage": om.stage, "gen_degree": om.gen_degree,
               "invertible": om.invertible, "flags": om.flags}
        if om.module is not None:
            out["generators"] = [[n, d] for n, d in om.module.generators]
            out["relations"] = len(om.module.relations)
        return out

    def cmd_bc_check(self, pos, kv):
        pos, w = self.window(pos, "map", "ideal")
        f = self.env.ring_map(pos[0])
        p = self.env.ideal(pos[1])
        rep = theorem_bc_check(f, p, w, self.env.certificate(f.source, w))
        return {"kind": "bc-check", "verdict": bool(rep["verdict"]),
                "mode": rep["mode"], "nu": rep["nu"],
                "gen_degree": rep["gen_degree"], "dimension": rep["dimension"]}

    def cmd_transitivity_check(self, pos, kv):
        pos, w = self.window(pos, "map")
        f = self.env.ring_map(pos[0])
        r = RingMap.unit(f.source)
        rep = transitivity_check(r, f, w)
        return {"kind": "transitivity-check", "verdict": bool(rep["verdict"]),
                "lhs": {str(k): v for k, v in rep["lhs"].items()},
                "rhs": {str(k): v for k, v in rep["rhs"].items()}}


# run -------------------------------------------------------------------------


def run(spec: SessionSpec, seed: int = 0,
        default_window: Window = Window(-8, 8),
        s_max: Optional[int] = None) -> Tuple[Dict[str, object], int]:
    env = Environment(spec)
    report: Dict[str, object] = {
        "meta": {"tool": "localduality", "version": VERSION, "seed": seed,
                 "convention": spec.convention,
                 "window": [default_window.t_lo, default_window.t_hi]},
        "results": [], "verdicts": [], "diagnostics": [],
    }
    if env.diags:
        report["diagnostics"] = [d.as_dict() for d in env.diags]
        return report, 1
    runner = Runner(env, default_window, s_max)
    exit_code = 0
    for ln, words in spec.commands:
        try:
            result = runner.run_command(words)
        except (CommandError, ContractViolation) as e:
            report["diagnostics"].append({"line": ln, "message": str(e)})
            exit_code = max(exit_code, 1)
            continue
        report["results"].append(result)
        if "verdict" in result:
            report["verdicts"].append({"command": result["command"],
                                       "verdict": result["verdict"]})
            if result.get("assertion") and not result["verdict"]:
                exit_code = max(exit_code, 2)
    return report, exit_code


# corpus ----------------------------------------------------------------------


@dataclass
class CorpusEntry:
    name: str
    text: str
    gorenstein: Optional[bool]
    krull_dim: Optional[int] = None
    shift: Optional[int] = None


def corpus() -> List[CorpusEntry]:
    """Bundled presentations exercised by the acceptance suite."""
    return [
        CorpusEntry("z2", "[ring R]\nchar = 2\ngenerators = x:-1\n"
                          "[run]\ngorenstein R\n", True, 1, 0),
        CorpusEntry("klein", "[ring R]\nchar = 2\ngenerators = x:-1, y:-1\n"
                             "[run]\ngorenstein R\n", True, 2, 0),
        CorpusEntry("bs1", "[ring R]\nchar = 2\ngenerators = c:-2\n"
                           "[run]\ngorenstein R\n", True, 1, 1),
        CorpusEntry("q8", "[ring R]\nchar = 2\n"
                          "generators = x:-1, y:-1, z:-4\n"
                          "relations = x^2 + x*y + y^2, x^2*y + x*y^2\n"
                          "[run]\ngorenstein R\n", True, 1, None),
        CorpusEntry("odd_line", "[ring R]\nchar = 3\n"
                                "generators = a:-1:odd, b:-2\n"
                                "[run]\ngorenstein R\n", True, 1, None),
        CorpusEntry("exterior", "[ring R]\nchar = 2\ngenerators = e:-1\n"
                                "relations = e^2\n"
                                "[run]\ngorenstein R\n", True, 0, None),
        CorpusEntry("hypersurface", "[ring R]\nchar = 2\n"
                                    "generators = x:-1, y:-1\n"
                                    "relations = y^2\n"
                                    "[run]\ngorenstein R\n", True, 1, -1),
        CorpusEntry("non_gorenstein", "[ring R]\nchar = 2\n"
                                      "generators = x:-1, y:-1\n"
                                      "relations = x^2, x*y\n"
                                      "[run]\ngorenstein R\n", False, None, None),
        CorpusEntry("fat_point", "[ring R]\nchar = 2\n"
                                 "generators = x:-1, y:-1\n"
                                 "relations = x^2, x*y, y^2\n"
                                 "[run]\ngorenstein R\n", False, None, None),
    ]


# entry point -----------------------------------------------------------------


def parse_window_args(ap: argparse.ArgumentParser,
                      argv: Optional[Sequence[str]] = None
                      ) -> Tuple[argparse.Namespace, Optional[Window]]:
    """ap.parse_args(argv) and the Window of its "--window LO:HI", or None
    after printing "bad --window, expected LO:HI" when it does not parse.

    argparse takes a word starting with "-" for an option, not for the value
    of --window, so each "--window" is joined with the word after it first.
    """
    args = list(sys.argv[1:] if argv is None else argv)
    joined: List[str] = []
    i = 0
    while i < len(args):
        if args[i] == "--window" and i + 1 < len(args):
            joined.append("--window=" + args[i + 1])
            i += 2
        else:
            joined.append(args[i])
            i += 1
    ns = ap.parse_args(joined)
    try:
        lo, hi = [int(x) for x in ns.window.split(":")]
    except ValueError:
        print("bad --window, expected LO:HI", file=sys.stderr)
        return ns, None
    return ns, Window(min(lo, hi), max(lo, hi))


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="localduality",
        description="Windowed local cohomology, duality certificates and "
                    "relative dualizing modules for connected graded "
                    "algebras over prime fields.")
    ap.add_argument("--input", required=True, help="declarative session file")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--window", default="-8:8", metavar="LO:HI")
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="write the JSON report here (default: stdout)")
    ap.add_argument("--s-max", type=int, default=None,
                    help="tower stage cap (default: window span + 4)")
    args, w = parse_window_args(ap, argv)
    if w is None:
        return 1
    try:
        with open(args.input) as fh:
            text = fh.read()
    except OSError as e:
        print(f"cannot read {args.input}: {e}", file=sys.stderr)
        return 1
    spec, diags = parse(text)
    if spec is None:
        out = {"meta": {"tool": "localduality", "version": VERSION,
                        "seed": args.seed},
               "results": [], "verdicts": [],
               "diagnostics": [d.as_dict() for d in diags]}
        print(json.dumps(out, indent=2, sort_keys=True))
        return 1
    try:
        report, code = run(spec, seed=args.seed, default_window=w,
                           s_max=args.s_max)
    except Exception as e:  # internal error: report and exit 3
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
