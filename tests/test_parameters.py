"""Every parameter with a default earns its caller.

A parameter with a default is an option: each one doubles the
configurations a test must cover.  One that no call in the package, its
scripts or its benchmark sets is always at its default, so it should be a
constant or derived from the other inputs.  Calls are matched by name: a
function by its name, a constructor by its class name, a method by its
attribute name; a parameter counts as set when some such call passes it by
keyword or by position, or passes *args or **kwargs.  The parameters below
are kept on purpose.
"""

import ast
from collections import defaultdict
from pathlib import Path

import localduality

PACKAGE = Path(localduality.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
CALLERS = [PACKAGE, ROOT / "scripts", ROOT / "bench"]

KEPT = {
    "cli.main.argv":
        "the console entry point reads sys.argv; tests pass their own",
    "complexes.shift.t_shift": "the internal-degree half of the suspension",
    "torsion.dual_koszul_free.power":
        "set by the Koszul tower's stage loop, which calls it by another name",
    "torsion.tate.s_max": "the user's --s-max, passed on by Runner._functor",
    "cohom.torsionness_check.s_max": "the tower stage cap, as on every tower",
    "relative.coinduction_split_check.s_max":
        "the tower stage cap, as on every tower",
}


def _defaulted_parameters():
    """{"module.[Class.]function.param": (callee name, param, position or
    None)} over every def, nested ones included."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {child: node for node in ast.walk(tree)
                 for child in ast.iter_child_nodes(node)}
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            cls = owner[func].name if isinstance(owner[func], ast.ClassDef) \
                else None
            a = func.args
            positional = a.posonlyargs + a.args
            skip = 1 if cls is not None and not any(
                getattr(d, "id", None) == "staticmethod"
                for d in func.decorator_list) else 0
            callee = cls if func.name == "__init__" else func.name
            prefix = ".".join(filter(None, [path.stem, cls, func.name]))
            first = len(positional) - len(a.defaults)
            for i, arg in enumerate(positional[first:], first):
                out[f"{prefix}.{arg.arg}"] = (callee, arg.arg, i - skip)
            for arg, d in zip(a.kwonlyargs, a.kw_defaults):
                if d is not None:
                    out[f"{prefix}.{arg.arg}"] = (callee, arg.arg, None)
    return out


def _calls():
    """{callee name: [(positional count, keywords, open)]}, where open
    means the call passes *args or **kwargs."""
    calls = defaultdict(list)
    for folder in CALLERS:
        for path in sorted(folder.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                if name is None:
                    continue
                keywords = {k.arg for k in node.keywords}
                open_ = None in keywords or any(
                    isinstance(x, ast.Starred) for x in node.args)
                calls[name].append((len(node.args), keywords, open_))
    return calls


def test_every_defaulted_parameter_is_set_by_a_caller():
    calls = _calls()
    unset = set()
    for qualname, (callee, param, pos) in _defaulted_parameters().items():
        if not any(open_ or param in keywords or
                   (pos is not None and count > pos)
                   for count, keywords, open_ in calls.get(callee, ())):
            unset.add(qualname)
    # an entry of KEPT that a caller came to set is no exception any more
    assert unset == set(KEPT), \
        f"set by no caller: {sorted(unset - set(KEPT))}; " \
        f"set after all: {sorted(set(KEPT) - unset)}"
