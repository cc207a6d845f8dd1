"""Opt-in tracer: per-layer self time and work counts, measured from outside.

The tracer rebinds public functions of the `localduality` package to thin
wrappers.  A function is rebound at every module attribute and class
attribute that holds it, so `rank` is caught whether it is called through
`exactla`, `complexes` or `torsion`, and `SparseMatrix.matmul` also through
the `@` operator.  Nothing under `src/` is changed; `uninstall` restores
every binding.

Self time of a call is its duration minus the durations of the wrapped calls
nested inside it.  Counters accumulate per metric group and are read and
reset per round by the benchmark.  Calls of the coarse functions (those not
in the hot set) are also kept as spans in memory and written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter
from typing import Dict, List, Tuple

# group -> [(module, attribute path, mode)].  Modes: "count" counts calls
# only; "timed" adds self time; "span" also records one span per call.
TARGETS: Dict[str, List[Tuple[str, str, str]]] = {
    "exactla.matrix_init": [("exactla", "SparseMatrix.__init__", "count")],
    "exactla.matmul": [("exactla", "SparseMatrix.matmul", "timed")],
    "exactla.elim": [("exactla", "rref", "timed"), ("exactla", "rank", "timed")],
    "graded.element_action": [("graded", "GradedModule.element_action", "timed")],
    "graded.normal_form": [("graded", "GradedRing.normal_form", "timed")],
    "graded.complete": [("graded", "GradedRing.complete", "timed")],
    "graded.resolution": [("graded", "minimal_free_resolution", "span")],
    "graded.tor_ext": [("graded", "tor", "span"), ("graded", "ext", "span")],
    "complexes.homology_space": [("complexes", "homology_space", "timed")],
    "complexes.homology": [("complexes", "homology", "span")],
    "complexes.cone": [("complexes", "cone", "span")],
    "complexes.realize": [("complexes", "FreeComplex.realize", "span")],
    "torsion.free_tensor": [("torsion", "free_tensor", "span")],
    "torsion.free_tensor_map": [("torsion", "free_tensor_map", "span")],
    "torsion.element_action": [("torsion", "complex_element_action", "timed")],
    "torsion.tower": [("torsion", "gamma", "span"), ("torsion", "completion", "span")],
    "cohom.local_cohomology": [("cohom", "local_cohomology", "span")],
    "cohom.check": [("cohom", "collapse_check", "span"),
                    ("cohom", "oracle_agreement", "span"),
                    ("cohom", "torsionness_check", "span")],
    "duality.gorenstein": [("duality", "gorenstein_certificate", "span"),
                           ("duality", "absolute_gorenstein_check", "span")],
    "duality.injective_hull": [("duality", "injective_hull", "span")],
    "relative.public": [("relative", name, "span") for name in (
        "compactness_certificate", "dualizing_module", "theorem_bc_check",
        "transitivity_check", "coinduction_split_check", "restrict", "induce")],
    "cli.parse": [("cli", "parse", "span")],
    "cli.run": [("cli", "run", "span")],
}

# Per-layer metrics: name -> (group, field), field "calls" or "self_s".
# Ratios, cells and the tracing overhead are computed separately.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "exactla.matrix_inits": ("exactla.matrix_init", "calls"),
    "exactla.matmul_calls": ("exactla.matmul", "calls"),
    "exactla.matmul_s": ("exactla.matmul", "self_s"),
    "exactla.elim_calls": ("exactla.elim", "calls"),
    "exactla.elim_s": ("exactla.elim", "self_s"),
    "graded.element_action_calls": ("graded.element_action", "calls"),
    "graded.element_action_s": ("graded.element_action", "self_s"),
    "graded.resolution_s": ("graded.resolution", "self_s"),
    "graded.tor_ext_self_s": ("graded.tor_ext", "self_s"),
    "graded.normal_form_calls": ("graded.normal_form", "calls"),
    "graded.normal_form_s": ("graded.normal_form", "self_s"),
    "graded.complete_s": ("graded.complete", "self_s"),
    "complexes.homology_space_calls": ("complexes.homology_space", "calls"),
    "complexes.homology_space_s": ("complexes.homology_space", "self_s"),
    "complexes.homology_s": ("complexes.homology", "self_s"),
    "complexes.cone_s": ("complexes.cone", "self_s"),
    "complexes.realize_s": ("complexes.realize", "self_s"),
    "torsion.free_tensor_calls": ("torsion.free_tensor", "calls"),
    "torsion.free_tensor_s": ("torsion.free_tensor", "self_s"),
    "torsion.free_tensor_map_s": ("torsion.free_tensor_map", "self_s"),
    "torsion.element_action_calls": ("torsion.element_action", "calls"),
    "torsion.element_action_s": ("torsion.element_action", "self_s"),
    "torsion.tower_self_s": ("torsion.tower", "self_s"),
    "cohom.local_cohomology_self_s": ("cohom.local_cohomology", "self_s"),
    "cohom.check_self_s": ("cohom.check", "self_s"),
    "duality.gorenstein_self_s": ("duality.gorenstein", "self_s"),
    "duality.injective_hull_s": ("duality.injective_hull", "self_s"),
    "relative.self_s": ("relative.public", "self_s"),
    "cli.parse_s": ("cli.parse", "self_s"),
    "cli.run_self_s": ("cli.run", "self_s"),
}


class Tracer:
    """Wraps the package's public functions; see the module docstring."""

    def __init__(self):
        self.acc: Dict[str, List[float]] = {g: [0, 0.0] for g in TARGETS}
        self.empty_products = 0
        self.elim_cells = 0
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.op_id = -1
        self._child = [0.0]        # child-time accumulator per open call
        self._open_spans = [-1]    # ids of the open recorded spans
        self._undo: List[Tuple[object, str, object]] = []

    # installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "localduality" or name.startswith("localduality.")]
        for group, targets in TARGETS.items():
            for mod_name, path, mode in targets:
                owner = sys.modules["localduality." + mod_name]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                orig = vars(owner)[attr]
                wrapper = self._wrap(orig, group, f"{mod_name}.{path}", mode)
                for site, key in _binding_sites(modules, orig):
                    self._undo.append((site, key, orig))
                    setattr(site, key, wrapper)

    def uninstall(self) -> None:
        for site, key, orig in reversed(self._undo):
            setattr(site, key, orig)
        self._undo.clear()

    def _wrap(self, orig, group: str, name: str, mode: str):
        acc = self.acc[group]
        child = self._child
        if mode == "count":
            def counted(*args, **kwargs):
                acc[0] += 1
                return orig(*args, **kwargs)
            return functools.wraps(orig)(counted)
        probe = {"exactla.matmul": self._probe_matmul,
                 "exactla.elim": self._probe_elim}.get(group)
        if mode == "timed":
            def timed(*args, **kwargs):
                if probe is not None:
                    probe(*args)
                child.append(0.0)
                t0 = perf_counter()
                try:
                    return orig(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    acc[0] += 1
                    acc[1] += dt - child.pop()
                    child[-1] += dt
            return functools.wraps(orig)(timed)
        spans = self.spans
        open_spans = self._open_spans

        def spanned(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = open_spans[-1]
            open_spans.append(sid)
            child.append(0.0)
            t0 = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                open_spans.pop()
                acc[0] += 1
                acc[1] += dt - child.pop()
                child[-1] += dt
                spans[sid] = (self.op_id, parent, name, t0, t1)
        return functools.wraps(orig)(spanned)

    def _probe_matmul(self, a, b, *rest):
        if not a.entries or not b.entries:
            self.empty_products += 1

    def _probe_elim(self, m, *rest):
        self.elim_cells += m.rows * m.cols

    # rounds --------------------------------------------------------------

    def call_op(self, label: str, fn, *args):
        """Run one benchmark operation as a root span with a fresh op id."""
        self.op_id += 1
        op_id = self.op_id
        sid = len(self.spans)
        self.spans.append(None)
        self._open_spans.append(sid)
        self._child.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self._open_spans.pop()
            self._child.pop()
            self.spans[sid] = (op_id, -1, "op:" + label, t0, t1)

    def reset_counters(self) -> None:
        for acc in self.acc.values():
            acc[0], acc[1] = 0, 0.0
        self.empty_products = 0
        self.elim_cells = 0

    def layer_metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, (group, field) in LAYER_METRICS.items():
            calls, self_s = self.acc[group]
            out[name] = calls if field == "calls" else self_s
        matmuls = self.acc["exactla.matmul"][0]
        out["exactla.matmul_empty_ratio"] = (self.empty_products / matmuls
                                             if matmuls else 0.0)
        out["exactla.elim_cells"] = self.elim_cells
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, span in enumerate(self.spans):
                if span is None:
                    continue
                op, parent, name, t0, t1 = span
                fh.write(json.dumps({"id": sid, "op": op, "parent": parent,
                                     "name": name, "start": t0, "end": t1})
                         + "\n")


def _binding_sites(modules, orig):
    """Every (module or class, attribute) in the package that holds orig."""
    seen = set()
    for mod in modules:
        owners = [mod] + [v for v in vars(mod).values()
                          if isinstance(v, type)
                          and v.__module__.startswith("localduality")]
        for owner in owners:
            for key, val in list(vars(owner).items()):
                if val is orig and (id(owner), key) not in seen:
                    seen.add((id(owner), key))
                    yield owner, key


def metric_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"
