"""Who may call what in the package, read off its syntax trees.

The socle comparison (H^i of a torsion result against the shifted injective
hull) has one owner, `duality._socle_comparison`: it alone builds the
homology model and runs the exact hull test, so the comparison window is
derived in one place; the Gorenstein certificate and H^*_m at a maximal
ideal read local duality over a polynomial ring and build no torsion tower
at all.  `torsion.adjunction_check` reads its left side off the
completion tower and builds no tensor product of its own.  Resolutions take
no window: `graded.minimal_free_resolution` alone walks the degrees, down
to the floors of its Schreyer frames, so no caller pads a floor of its own.
A matrix of ring elements is written in one place per layer: the free-side
blocks of F (x) X by `complexes._free_blocks`, spans of ring multiples by
`graded.FreeModule.multiples`.  Two checks run a session instead: `oracle-check` on a ring builds Gamma_m of
the ring once, for the certificate, and compares with the table it read, and
`bc-check` reads its source's certificate from the session.  There is one
Buchberger loop, `graded._Submodule.complete`: a ring's relation ideal is a
rank-one submodule over its free ring, so `graded.GradedRing` takes no
S-pair and reduces nothing itself.  A complex's actions are built when
first read; only `WindowedComplex.validate` reads the view that builds
them all.  Every complex passes a monomial builder that reads x^a off its
parts, so the only matrix product on the monomial path is the chain of
actions given per generator, `complexes.generator_chain`.
"""

import ast
from collections import defaultdict
from pathlib import Path

import localduality

PACKAGE = Path(localduality.__file__).resolve().parent


def _calls_by_function():
    """{callee name: {"module.function"}} over every function in the
    package; a nested function's calls count for the function it is in."""
    callers = defaultdict(set)
    loops = defaultdict(int)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owners = [node for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for owner in owners:
            funcs = ([owner] if isinstance(owner, ast.FunctionDef) else
                     [f for f in owner.body if isinstance(f, ast.FunctionDef)])
            for func in funcs:
                name = f"{path.stem}.{func.name}"
                for node in ast.walk(func):
                    if isinstance(node, (ast.For, ast.While)):
                        loops[name] += 1
                    if not isinstance(node, ast.Call):
                        continue
                    f = node.func
                    callee = f.id if isinstance(f, ast.Name) else \
                        f.attr if isinstance(f, ast.Attribute) else None
                    if callee:
                        callers[callee].add(name)
    return callers, loops


def test_one_function_owns_the_socle_comparison():
    callers, _ = _calls_by_function()
    assert callers["is_shifted_hull"] == {"duality._socle_comparison"}
    assert callers["homology_model"] == {"duality._socle_comparison"}
    # the certificate reads no torsion tower, so it compares no socle
    assert callers["_socle_comparison"] == {
        "duality.absolute_gorenstein_check", "relative.theorem_bc_check"}


def test_adjunction_check_builds_no_tower_of_its_own():
    callers, loops = _calls_by_function()
    assert "torsion.adjunction_check" not in callers["free_tensor"]
    assert "torsion.adjunction_check" not in callers["koszul_free"]
    assert "torsion.adjunction_check" in callers["completion"]
    assert loops["torsion.adjunction_check"] == 0


def test_theorem_bc_check_builds_one_torsion_tower():
    # Gamma_p(omega): both comparisons read it, and its flags bound both
    source = (PACKAGE / "relative.py").read_text()
    func = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef)
                and node.name == "theorem_bc_check")
    gammas = [node for node in ast.walk(func) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "gamma"]
    assert len(gammas) == 1


def test_resolutions_take_no_window():
    callers, _ = _calls_by_function()
    assert callers["_minimal_generators"] == {"graded.minimal_free_resolution"}
    source = (PACKAGE / "graded.py").read_text()
    func = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef)
                and node.name == "minimal_free_resolution")
    assert [a.arg for a in func.args.args] == ["mod", "length"]
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) == "minimal_free_resolution":
                # the module and the length, nothing that could be a window
                assert len(node.args) == 2 and not node.keywords, \
                    f"{path.name}:{node.lineno}"


def test_one_buchberger_loop():
    tree = ast.parse((PACKAGE / "graded.py").read_text())
    methods = {f"{owner.name}.{func.name}": func for owner in tree.body
               if isinstance(owner, ast.ClassDef) for func in owner.body
               if isinstance(func, ast.FunctionDef)}
    functions = dict(methods, **{func.name: func for func in tree.body
                                 if isinstance(func, ast.FunctionDef)})
    readers = {name for name, func in functions.items()
               for node in ast.walk(func)
               if isinstance(node, ast.Name) and node.id == "PAIR_LIMIT"}
    assert readers == {"_Submodule.complete"}
    # the ring's only while loop reads tokens: no S-pair or reduction loop
    looping = {name for name, func in methods.items()
               if name.startswith("GradedRing.")
               and any(isinstance(node, ast.While) for node in ast.walk(func))}
    assert looping == {"GradedRing.parse"}


def test_one_writer_per_layer_for_matrices_of_ring_elements():
    # complexes: the free-side blocks of free_tensor's differential and of
    # every free_tensor_map, unit maps included, come from one writer
    callers, _ = _calls_by_function()
    assert {c for c in callers["complex_element_action"]
            if c.startswith("complexes.")} == {"complexes._free_blocks"}
    # graded: spans of ring multiples come from FreeModule.multiples; a
    # module's element action and the Groebner basis of a submodule (a
    # module's relations, a Schreyer frame, a ring's relation ideal)
    # multiply on their own, and a ring's normal form is the product of
    # the unit monomial and the element
    assert {c for c in callers["times_monomial"] if c.startswith("graded.")} \
        == {"graded.multiples", "graded.element_action", "graded._times",
            "graded.normal_form"}
    # relative: present_model's degree loop builds no module to read its
    # relation span
    source = (PACKAGE / "relative.py").read_text()
    func = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef)
                and node.name == "present_model")
    built = [node.lineno for loop in ast.walk(func)
             if isinstance(loop, (ast.For, ast.While))
             for node in ast.walk(loop) if isinstance(node, ast.Call)
             and "GradedModule" in (getattr(node.func, "id", None),
                                    getattr(node.func, "attr", None))]
    assert not built, built


def test_only_validate_builds_every_action():
    # a WindowedComplex builds each generator action when it is first read;
    # its actions view builds them all, so only validate may read it
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, owner):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = f"{owner}.{node.name}"
            if isinstance(node, ast.Attribute) and node.attr == "actions":
                readers.add(owner)
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        visit(tree, path.stem)
    assert readers == {"complexes.WindowedComplex.validate"}


def _multiplies(node):
    """Whether node's syntax holds a matrix product, @ or matmul."""
    return any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)
               or isinstance(n, ast.Attribute) and n.attr == "matmul"
               for n in ast.walk(node))


def test_monomial_actions_are_built_from_parts_without_products():
    # each WindowedComplex(...) and module_slice(...) in the package passes
    # a function for its actions (a nested builder or a lambda), or None for
    # a complex cut below its top, and none of them, nor the memo's readers,
    # multiplies matrices
    positions = {"WindowedComplex": 3, "module_slice": 2}
    builders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in [f for node in tree.body for f in (
                node.body if isinstance(node, ast.ClassDef) else [node])
                if isinstance(f, ast.FunctionDef)]:
            nested = {f.name: f for f in ast.walk(func)
                      if isinstance(f, ast.FunctionDef) and f is not func}
            for node in ast.walk(func):
                if not (isinstance(node, ast.Call) and
                        getattr(node.func, "id", None) in positions):
                    continue
                arg = node.args[positions[node.func.id]]
                where = f"{path.name}:{node.lineno}"
                if isinstance(arg, ast.IfExp):
                    # a complex cut below its top is given no actions
                    assert isinstance(arg.orelse, ast.Constant) and \
                        arg.orelse.value is None, where
                    arg = arg.body
                if isinstance(arg, ast.Name):
                    # a builder is defined in the function that passes it
                    assert arg.id in nested, where
                    arg = nested[arg.id]
                assert isinstance(arg, (ast.FunctionDef, ast.Lambda)), where
                assert not _multiplies(arg), where
                builders.append(where)
    # module_slice, shift, cone, free_tensor, brown_comenetz, and the
    # actions handed to module_slice
    assert len(builders) >= 9, builders
    tree = ast.parse((PACKAGE / "complexes.py").read_text())
    functions = {f.name: f for f in ast.walk(tree)
                 if isinstance(f, ast.FunctionDef)}
    for name in ("monomial_action", "part_action", "_built"):
        assert not _multiplies(functions[name]), name
    # the one function that both reads a monomial action and multiplies
    callers, _ = _calls_by_function()
    multiplying = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for f in ast.walk(ast.parse(path.read_text())):
            if isinstance(f, ast.FunctionDef) and _multiplies(f):
                multiplying.add(f"{path.stem}.{f.name}")
    readers = callers["monomial_action"] | callers["part_action"]
    assert readers & multiplying == {"complexes.generator_chain"}


ORACLE_ON_THE_RING = """\
[ring P]
char = 2
generators = x:-1, y:-1

[run]
oracle-check P
"""


def _record_calls(monkeypatch, module, name, key):
    """Wrap module.name at every module of the package that binds it;
    returns the list of key(args) of its calls."""
    import importlib
    calls = []
    orig = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(key(args))
        return orig(*args, **kwargs)

    for path in PACKAGE.glob("*.py"):
        mod = importlib.import_module(f"localduality.{path.stem}")
        if getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, recording)
    return calls


def test_oracle_check_on_the_ring_builds_one_torsion_tower(monkeypatch):
    # the certificate's H^*_m(P) table is the tower side of the comparison
    import localduality.torsion as torsion
    from localduality.cli import parse, run
    from localduality.graded import Window
    calls = _record_calls(monkeypatch, torsion, "gamma", lambda a: a[0])
    spec, _ = parse(ORACLE_ON_THE_RING)
    report, code = run(spec, default_window=Window(-4, 4))
    assert code == 0 and report["results"][0]["verdict"] is True
    assert len(calls) == 1


def test_certificate_and_maximal_local_cohomology_build_no_tower(monkeypatch):
    # F3[a', b], a odd: local duality over F3[b] serves a ring with an odd
    # generator as it serves every other ring
    import localduality.torsion as torsion
    from localduality.cohom import local_cohomology
    from localduality.duality import gorenstein_certificate
    from localduality.graded import GradedModule, Window, maximal_ideal
    from conftest import odd_ring
    calls = _record_calls(monkeypatch, torsion, "gamma", lambda a: a[0])
    ring = odd_ring("F3[a',b]")
    w = Window(-4, 4)
    cert = gorenstein_certificate(ring, w)
    assert (cert.verdict, cert.krull_dim, cert.shift) == (True, 1, 0)
    mod = GradedModule(ring, [("u", 0)], [["b"]], name="R/(b)")
    table = local_cohomology(mod, maximal_ideal(ring), w)
    assert table.entries == {(0, 0): 1, (0, -1): 1} and not table.flags
    assert calls == []


BC_CHECK_AFTER_GORENSTEIN = """\
[ring L]
char = 2
generators = x:-1

[ring S]
char = 2
generators = x:-1, y:-1
relations = y^2

[ideal mS]
ring = S
generators = x, y

[map f]
source = L
target = S
images = x -> x

[run]
gorenstein L
bc-check f mS
"""


def test_bc_check_reads_the_session_certificate(monkeypatch):
    # the source's certificate is the one `gorenstein L` computed
    import localduality.duality as duality
    from localduality.cli import parse, run
    from localduality.graded import Window
    calls = _record_calls(monkeypatch, duality, "gorenstein_certificate",
                          lambda a: a[0].name)
    spec, _ = parse(BC_CHECK_AFTER_GORENSTEIN)
    report, code = run(spec, default_window=Window(-4, 4))
    assert code == 0 and report["results"][1]["verdict"] is True
    assert calls == ["L"]
