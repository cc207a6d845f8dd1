"""Declarative session format: parsing, diagnostics, execution, exit codes,
conventions and the bundled corpus."""

import json
import time

import pytest

from localduality.cli import Runner, corpus, main, parse, run
from localduality.graded import Window


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


def test_completion_runaway_is_line_diagnostic(tmp_path, capsys):
    # all 210 quadratic monomials in 20 variables: more than 20000 S-pairs
    names = [f"x{i}" for i in range(20)]
    rels = ", ".join(f"{a}*{b}" for i, a in enumerate(names) for b in names[i:])
    inp = write(tmp_path, "[ring R]\nchar = 2\n"
                          f"generators = {', '.join(n + ':-1' for n in names)}\n"
                          f"relations = {rels}\n\n[run]\nhilbert R\n")
    assert main(["--input", inp, "--window", "0:0"]) == 1
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert len(diags) == 1 and diags[0]["line"] == 7
    assert diags[0]["message"].startswith("completion runaway")


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
