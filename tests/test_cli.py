"""Declarative session format: parsing, diagnostics, execution, exit codes,
conventions and the bundled corpus."""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from localduality import graded
from localduality.cli import Runner, corpus, main, parse, parse_window_args, run
from localduality.graded import Window

ROOT = Path(__file__).resolve().parent.parent

LINE = """\
[ring R]
char = 2
generators = x:-1

[run]
hilbert R
gorenstein R
"""


def write(tmp_path, text, name="session.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# parsing ----------------------------------------------------------------------


def test_parse_basic():
    spec, diags = parse(LINE)
    assert spec is not None and not diags
    assert [name for name, _ in spec.rings.items()] == ["R"]
    assert [words for _ln, words in spec.commands] == [
        ["hilbert", "R"], ["gorenstein", "R"]]


def test_parse_reports_line_numbers():
    bad = "[ring R]\nchar = 2\ngenerators = x:0\n[run]\nhilbert R\n"
    spec, diags = parse(bad)
    assert spec is None or diags
    ds = diags or []
    assert any(d.line for d in ds)


def test_parse_rejects_nonconnected():
    text = "[ring R]\nchar = 2\ngenerators = x:1\n[run]\nhilbert R\n"
    _spec, diags = parse(text)
    assert diags


def test_parse_odd_generator_marker():
    text = ("[ring R]\nchar = 3\ngenerators = a:-1:odd, b:-2\n"
            "[run]\nhilbert R\n")
    spec, diags = parse(text)
    assert spec is not None and not diags
    rep, code = run(spec, default_window=Window(-6, 6))
    assert code == 0
    # a^2 = 0 forces dimension 1 in every degree: 1, a, b, ab, b^2, ...
    table = rep["results"][0]["table"]
    assert all(row["dim"] == 1 for row in table)


# execution and exit codes -----------------------------------------------------


def test_run_exit_zero():
    spec, _ = parse(LINE)
    rep, code = run(spec)
    assert code == 0
    assert rep["verdicts"] and rep["verdicts"][0]["verdict"] is True
    assert not rep["diagnostics"]


def test_undefined_name_is_diagnostic_exit_one():
    text = "[ring R]\nchar = 2\ngenerators = x:-1\n[run]\nhilbert Q\n"
    spec, _ = parse(text)
    rep, code = run(spec)
    assert code == 1
    assert rep["diagnostics"]


def test_mixed_parity_module_is_diagnostic_exit_one(tmp_path, capsys):
    inp = write(tmp_path, "[ring R]\nchar = 3\n"
                          "generators = a:-1:odd, b:-1:odd, c:-2\n\n"
                          "[module M]\nring = R\ngenerators = u:0, v:-1\n"
                          "relation = a | 2\nrelation = c | b\n\n"
                          "[run]\nhilbert M\n")
    assert main(["--input", inp, "--window=-4:0"]) == 1
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert len(diags) == 1 and diags[0]["line"] == 5
    assert diags[0]["message"] == ("module M: relation row 1 mixes parities: "
                                   "a*u is odd but 2*v is even")


def test_failed_assertion_exit_two():
    text = ("[ring R]\nchar = 2\ngenerators = x:-1, y:-1\n"
            "relations = x^2, x*y\n[run]\nassert-gorenstein R\n")
    spec, _ = parse(text)
    rep, code = run(spec)
    assert code == 2
    assert rep["verdicts"][0]["verdict"] is False


def test_missing_argument_names_expected_arguments():
    text = ("[ring R]\nchar = 2\ngenerators = x:-1\n"
            "[module M]\nring = R\ngenerators = a:0\n"
            "[run]\ngamma M\ntor M\ngorenstein\n")
    spec, diags = parse(text)
    assert spec is not None and not diags, diags
    rep, code = run(spec)
    assert code == 1 and not rep["results"]
    messages = [d["message"] for d in rep["diagnostics"]]
    assert messages == [
        "missing argument: expected <module> <ideal> [window]",
        "missing argument: expected <module> <module> [window]",
        "missing argument: expected <ring> [window]"]
    assert [d["line"] for d in rep["diagnostics"]] == [8, 9, 10]


def test_undefined_names_keep_their_diagnostics():
    text = ("[ring R]\nchar = 2\ngenerators = x:-1\n"
            "[run]\nhilbert Q\ngamma R p\ngorenstein S\nomega f\n"
            "resolve R length=two\n")
    spec, diags = parse(text)
    assert spec is not None and not diags, diags
    rep, code = run(spec)
    assert code == 1 and not rep["results"]
    assert [d["message"] for d in rep["diagnostics"]] == [
        "undefined module Q", "undefined ideal p", "undefined ring S",
        "undefined map f", "bad length 'two', expected an integer"]
    assert [d["line"] for d in rep["diagnostics"]] == [5, 6, 7, 8, 9]


def test_a_window_word_that_does_not_parse_is_diagnosed():
    text = ("[ring R]\nchar = 2\ngenerators = x:-1\n"
            "[ideal m]\nring = R\ngenerators = x\nprime = yes\n"
            "[ideal z]\nring = R\ngenerators = 0\nprime = yes\n"
            "[window wide]\nrange = -3:3\n"
            "[run]\ngamma R m 3:x\ngamma R m wid\ngorenstein R -2:2 R\n"
            "gamma R m wide\nl2g-check R z:x m\nl2g-check R z:x m 0:2\n")
    spec, diags = parse(text)
    assert spec is not None and not diags, diags
    rep, code = run(spec)
    assert code == 1
    assert [(d["line"], d["message"]) for d in rep["diagnostics"]] == [
        (15, "unexpected argument '3:x': expected <module> <ideal> [window], "
             "a window being a [window] name or LO:HI"),
        (16, "unexpected argument 'wid': expected <module> <ideal> [window], "
             "a window being a [window] name or LO:HI"),
        (17, "unexpected argument '-2:2': expected <ring> [window], "
             "a window being a [window] name or LO:HI")]
    # a [window] name, and prime:element words before a trailing window
    assert [r["command"] for r in rep["results"]] == [
        "gamma R m wide", "l2g-check R z:x m", "l2g-check R z:x m 0:2"]


def test_collapse_check_reads_the_stage_cap(monkeypatch):
    import localduality.cli as cli
    seen = []
    orig = cli.collapse_check

    def recording(m, p, w, s_max=None):
        seen.append(s_max)
        return orig(m, p, w, s_max)

    monkeypatch.setattr(cli, "collapse_check", recording)
    text = ("[ring R]\nchar = 2\ngenerators = x:-1\n"
            "[ideal m]\nring = R\ngenerators = x\n"
            "[run]\ncollapse-check R m -2:2\n")
    spec, _ = parse(text)
    _, code = run(spec, s_max=1)
    assert code == 0 and seen == [1]


@pytest.mark.parametrize("error", [IndexError, KeyError])
def test_internal_error_exit_three(tmp_path, capsys, monkeypatch, error):
    # an engine fault is not a user error, whatever its exception type
    def broken(self, pos, kv):
        raise error("engine fault")
    monkeypatch.setattr(Runner, "cmd_hilbert", broken)
    assert main(["--input", write(tmp_path, LINE)]) == 3
    assert "internal error" in capsys.readouterr().err


def test_cohomological_convention():
    coh = ("convention = cohomological\n[ring R]\nchar = 2\n"
           "generators = x:1\n[run]\nhilbert R\ngorenstein R\n")
    spec, diags = parse(coh)
    assert spec is not None and not diags, diags
    rep, code = run(spec)
    assert code == 0
    assert rep["verdicts"][0]["verdict"] is True


def test_report_has_no_timing_keys():
    spec, _ = parse(LINE)
    rep, _code = run(spec)
    payload = json.dumps(rep)
    for word in ("time", "elapsed", "duration", "wall"):
        assert word not in payload


PLANE = """\
[ring P]
char = 2
generators = x:-1, y:-1

[ideal xP]
ring = P
generators = x
prime = {prime}

[run]
{command} xP
"""


def test_dual_localize_reports_the_dimension_drop():
    spec, _ = parse(PLANE.format(prime="yes", command="dual-localize P"))
    rep, code = run(spec)
    assert code == 0, rep["diagnostics"]
    assert rep["results"][0]["ranks"] == {"2": 1}
    assert rep["results"][0]["dimension"] == 1


def test_dual_localize_at_an_undeclared_prime_is_diagnostic():
    spec, _ = parse(PLANE.format(prime="no", command="dual-localize P"))
    rep, code = run(spec)
    assert code == 1 and not rep["results"]
    assert rep["diagnostics"] == [{
        "line": 11, "message": "ideal xP is not declared prime; "
                               "kappa(p)-ranks need a prime"}]


def test_ihull_at_an_undeclared_prime_is_diagnostic():
    spec, _ = parse(PLANE.format(prime="no", command="ihull"))
    rep, code = run(spec)
    assert code == 1 and not rep["results"]
    assert rep["diagnostics"] == [{
        "line": 11, "message": "ideal xP is not declared prime; "
                               "kappa(p)-ranks need a prime"}]


# x^4*y + x*y^4 vanishes at every point over F_4; it is still a unit at the
# generic point of z = 0 in F2[x,y,z] and of the plane F2[x,y]
OFF_SUPPORT = """\
[ring R]
char = 2
generators = x:-1, y:-1, z:-1

[ring P]
char = 2
generators = x:-1, y:-1

[module M]
ring = R
generators = a:0
relation = x^4*y + x*y^4

[module N]
ring = P
generators = a:0
relation = x^4*y + x*y^4

[ideal zR]
ring = R
generators = z
prime = yes

[ideal zeroP]
ring = P
generators =
prime = yes

[run]
dual-localize M zR
dual-localize N zeroP
"""


def test_dual_localize_off_the_support_is_zero():
    spec, diags = parse(OFF_SUPPORT)
    assert spec is not None and not diags, diags
    rep, code = run(spec, default_window=Window(-5, 3))
    assert code == 0, rep["diagnostics"]
    assert [(r["ranks"], r["dimension"]) for r in rep["results"]] == [
        ({}, 2), ({}, 2)]


def test_determinism_byte_identical():
    spec1, _ = parse(LINE)
    spec2, _ = parse(LINE)
    r1, _ = run(spec1, seed=7)
    r2, _ = run(spec2, seed=7)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


# entry point ------------------------------------------------------------------


def test_main_writes_json(tmp_path, capsys):
    inp = write(tmp_path, LINE)
    out = tmp_path / "report.json"
    code = main(["--input", inp, "--json", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["meta"]["tool"] == "localduality"
    assert rep["verdicts"]


def test_main_bad_window(tmp_path, capsys):
    inp = write(tmp_path, LINE)
    assert main(["--input", inp, "--window", "oops"]) == 1
    assert main(["--input", inp, "--window", "3"]) == 1


def test_main_reads_a_space_separated_negative_window(tmp_path, capsys):
    inp = write(tmp_path, LINE)
    assert main(["--input", inp, "--window", "-4:0"]) == 0
    assert json.loads(capsys.readouterr().out)["meta"]["window"] == [-4, 0]


@pytest.mark.parametrize("script", ["certify_corpus.py",
                                    "relative_duality_demo.py"])
def test_script_runs_at_a_negative_window(script):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           "--window", "-4:4"], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("script", ["certify_corpus.py",
                                    "relative_duality_demo.py"])
@pytest.mark.parametrize("window", ["oops", "3", "1:2:3"])
def test_script_diagnoses_a_bad_window(script, window):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           "--window", window], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr == "bad --window, expected LO:HI\n"


@pytest.mark.parametrize("window", ["oops", "3", "1:2:3"])
def test_parse_window_args_diagnoses(window, capsys):
    ap = argparse.ArgumentParser()
    ap.add_argument("--window", default="-8:8")
    args, w = parse_window_args(ap, ["--window", window])
    assert w is None and args.window == window
    assert capsys.readouterr().err == "bad --window, expected LO:HI\n"
    assert parse_window_args(ap, ["--window", "3:-4"])[1] == Window(-4, 3)


def test_main_missing_file(capsys):
    assert main(["--input", "/nonexistent/file"]) == 1


def test_main_parse_failure_exit_one(tmp_path, capsys):
    inp = write(tmp_path, "[ring R]\nchar = 6\ngenerators = x:-1\n"
                          "[run]\nhilbert R\n")
    assert main(["--input", inp]) == 1


def test_huge_characteristic_is_diagnostic(tmp_path, capsys):
    # trial division of a characteristic this size would not finish
    inp = write(tmp_path, "[ring R]\nchar = 1" + "0" * 39 + "1\n"
                          "generators = x:-1\n[run]\nhilbert R\n")
    start = time.perf_counter()
    assert main(["--input", inp]) == 1
    assert time.perf_counter() - start < 5.0
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert len(diags) == 1 and diags[0]["line"] == 1
    assert "2^31" in diags[0]["message"]


def test_gorenstein_of_an_odd_ring_reads_no_window(tmp_path, capsys):
    # at (0, 0) the H^1_m of F3[a', b], a odd, lies above the window; the
    # certificate reads local duality over F3[b], which no window cuts, as
    # F2[x0]'s reads it over F2[x0]
    inp = write(tmp_path, "[ring T]\nchar = 3\ngenerators = a:-1:odd, b:-2\n"
                          "[ring P]\nchar = 2\ngenerators = x0:-1\n"
                          "[run]\ngorenstein T\ngorenstein P\n")
    assert main(["--input", inp, "--window", "0:0"]) == 0
    odd, even = json.loads(capsys.readouterr().out)["results"]
    for res in (odd, even):
        assert (res["verdict"], res["krull_dim"], res["shift"]) == (True, 1, 0)
        assert "witness" not in res and "reason" not in res


def test_undetermined_absolute_gorenstein_verdict_is_null(tmp_path, capsys):
    # F2[x] is Gorenstein with shift 0, so H^1_m(F2[x]) is the hull with its
    # socle in degree 1, above the window (0, 0): the comparison is
    # undetermined, and the report says null, not false
    inp = write(tmp_path, "[ring R]\nchar = 2\ngenerators = x:-1\n"
                          "[ideal m]\nring = R\ngenerators = x\n"
                          "[run]\ngorenstein R\nabs-gorenstein R m\n")
    assert main(["--input", inp, "--window", "0:0"]) == 0
    report = json.loads(capsys.readouterr().out)
    cert, absolute = report["results"]
    assert cert["verdict"] is True
    assert absolute["kind"] == "abs-gorenstein" and absolute["verdict"] is None
    assert report["verdicts"][-1]["verdict"] is None


def test_resolve_reads_a_minimal_presentation(tmp_path, capsys):
    # <u:0, v:-1 | x*u + v> is free on u: v = -x*u, so the resolution has
    # one generator and no relation, though the presentation has two and one
    inp = write(tmp_path, "[ring R]\nchar = 2\ngenerators = x:-1, y:-1\n"
                          "[module M]\nring = R\ngenerators = u:0, v:-1\n"
                          "relation = x | 1\n"
                          "[run]\nresolve M length=3\nhilbert M\n")
    assert main(["--input", inp, "--window", "-3:0"]) == 0
    res, hilbert = json.loads(capsys.readouterr().out)["results"]
    assert (res["ranks"], res["degrees"]) == ([1, 0, 0, 0], [[0], [], [], []])
    assert [r["dim"] for r in hilbert["table"]] == [4, 3, 2, 1]


def test_completion_runaway_is_line_diagnostic(tmp_path, capsys, monkeypatch):
    # all 210 quadratic monomials in 20 variables: 21945 S-pairs, none of
    # which reduces anything, so R answers down to -4; T's two relations
    # need 13 reductions down to -12, more than the lowered limit of 10
    monkeypatch.setattr(graded, "PAIR_LIMIT", 10)
    names = [f"x{i}" for i in range(20)]
    rels = ", ".join(f"{a}*{b}" for i, a in enumerate(names) for b in names[i:])
    inp = write(tmp_path, "[ring R]\nchar = 2\n"
                          f"generators = {', '.join(n + ':-1' for n in names)}\n"
                          f"relations = {rels}\n\n"
                          "[ring T]\nchar = 2\ngenerators = x:-1, y:-1, z:-1\n"
                          "relations = x^3*y^2 + x*y*z^3, x*y^3*z + y^4*z\n\n"
                          "[run]\nhilbert R\nhilbert T\n")
    assert main(["--input", inp, "--window", "-12:0"]) == 1
    report = json.loads(capsys.readouterr().out)
    [hilbert] = report["results"]
    assert [(r["t"], r["dim"]) for r in hilbert["table"]] == [(-1, 20), (0, 1)]
    diags = report["diagnostics"]
    assert len(diags) == 1 and diags[0]["line"] == 13
    assert diags[0]["message"] == ("completion runaway: the relations of "
                                   "ring T exceeded 10 S-pairs")


def test_script_prints_every_corpus_verdict():
    # at (0, 0), too narrow to hold any corpus ring's H^n_m, the script
    # prints each ring's own verdict, as the certificates read no window
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable,
                           str(ROOT / "scripts" / "certify_corpus.py"),
                           "--window", "0:0"], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    printed = {line.split()[0]: line.split()[1]
               for line in done.stdout.splitlines()[1:]}
    words = {True: "yes", False: "no"}
    assert printed == {entry.name: words[entry.gorenstein]
                       for entry in corpus()}


# corpus -----------------------------------------------------------------------


@pytest.mark.parametrize("entry", corpus(), ids=lambda e: e.name)
def test_corpus_certificates(entry):
    spec, diags = parse(entry.text)
    assert spec is not None and not diags, diags
    rep, code = run(spec, default_window=Window(-10, 10))
    assert code == 0, rep["diagnostics"]
    res = rep["results"][0]
    assert res["verdict"] is (True if entry.gorenstein else False)
    if entry.gorenstein:
        if entry.krull_dim is not None:
            assert res["krull_dim"] == entry.krull_dim
        if entry.shift is not None:
            assert res["shift"] == entry.shift
