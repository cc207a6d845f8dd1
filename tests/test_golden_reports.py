"""Golden JSON reports: sessions whose reports must not change byte for byte.

The files under tests/data/golden/ hold the reports of the acceptance
SESSION, of every corpus entry, of one desk session that runs the tower
functors, the checks and the relative-duality commands, and of one session
that reads exact kappa(p)-ranks at non-maximal primes, all at seed 7 and
window (-6, 6).  A refactor that changes a single table entry, flag or
verdict shows up here.

Regenerate (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import json
import pathlib
import sys

import pytest

from localduality.cli import corpus, parse, run
from localduality.graded import Window

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
SEED = 7
WINDOW = Window(-6, 6)

# the acceptance SESSION of test_acceptance.py
ACCEPTANCE = """\
[ring R]
char = 2
generators = x:-1, y:-1
relations = y^2

[module M]
ring = R
generators = a:0
relation = x^2

[ideal m]
ring = R
generators = x, y

[run]
hilbert R
gorenstein R
lc M m
collapse-check M m
"""

DESK = """\
[ring L]
char = 2
generators = x:-1

[ring S]
char = 2
generators = x:-1, y:-1
relations = y^2

[module M]
ring = S
generators = a:0
relation = x^2

[ideal mS]
ring = S
generators = x, y

[ideal xS]
ring = S
generators = x

[map f]
source = L
target = S
images = x -> x

[run]
gamma M mS
lambda M mS
tate M mS
gamma S xS
lambda S xS
tate S xS
lc M mS
lc S mS
collapse-check M mS
recollement-check M mS
omega f
bc-check f mS
"""


# dual localization, the absolute check and bc-check at non-maximal declared
# primes; M is zero at the generic point of the plane and nonzero along x = 0
KAPPA = """\
[ring P]
char = 2
generators = x:-1, y:-1

[ring L]
char = 2
generators = x:-1

[ring S]
char = 2
generators = x:-1, y:-1
relations = y^2

[module M]
ring = P
generators = a:0
relation = x^4*y + x*y^4

[ideal xP]
ring = P
generators = x
prime = yes

[ideal zeroP]
ring = P
generators =
prime = yes

[ideal yS]
ring = S
generators = y
prime = yes

[map f]
source = L
target = S
images = x -> x

[run]
ihull xP
dual-localize M xP
dual-localize M zeroP
dual-localize P xP
abs-gorenstein P xP
bc-check f yS
"""


def sessions():
    out = {"acceptance": ACCEPTANCE, "desk": DESK, "kappa": KAPPA}
    for entry in corpus():
        out[f"corpus_{entry.name}"] = entry.text
    return out


def report_bytes(text: str) -> bytes:
    spec, diags = parse(text)
    assert spec is not None and not diags, diags
    report, _code = run(spec, seed=SEED, default_window=WINDOW)
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("name", sorted(sessions()))
def test_report_matches_golden(name):
    want = (GOLDEN / f"{name}.json").read_bytes()
    assert report_bytes(sessions()[name]) == want


@pytest.mark.parametrize("name", sorted(sessions()))
def test_report_does_not_depend_on_the_seed(name):
    # the golden report is the seed-7 report (test_report_matches_golden);
    # no computation reads the seed, so only meta.seed may differ
    spec, _diags = parse(sessions()[name])
    report, _code = run(spec, seed=0, default_window=WINDOW)
    report = json.loads(json.dumps(report))
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert report["meta"].pop("seed") == 0 and want["meta"].pop("seed") == SEED
    assert report == want


def test_session_computes_each_certificate_once(monkeypatch):
    # the kappa session asks for P's certificate in three dual-localize
    # commands and in abs-gorenstein; the session's Environment keeps it
    import localduality.cli as cli_mod
    import localduality.duality as duality_mod
    import localduality.relative as relative_mod
    computed = []
    orig = duality_mod.gorenstein_certificate

    def counted(ring, w):
        computed.append(ring.name)
        return orig(ring, w)

    for mod in (cli_mod, duality_mod, relative_mod):
        monkeypatch.setattr(mod, "gorenstein_certificate", counted)
    assert report_bytes(KAPPA) == (GOLDEN / "kappa.json").read_bytes()
    assert computed.count("P") == 1


def test_golden_set_is_complete():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(sessions())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_reports.py --write")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, text in sessions().items():
        (GOLDEN / f"{name}.json").write_bytes(report_bytes(text))
