"""Every function the benchmark's opt-in tracer rebinds still exists.

`bench/tracing.py` names its targets as (module, attribute path) and
`Tracer.install` looks each one up as `vars(owner)[attr]`, so deleting or
renaming one of them breaks `bench/run.py --trace 1`.  This resolves every
target the same way, without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(group, mod_name, path)
            for group, targets in tracing.TARGETS.items()
            for mod_name, path, _mode in targets]


def test_every_tracer_target_resolves():
    targets = _targets()
    assert targets
    missing = []
    for group, mod_name, path in targets:
        owner = importlib.import_module("localduality." + mod_name)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{group}: {mod_name}.{path}")
    assert not missing, missing
