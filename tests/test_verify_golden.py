"""`folium verify --suite all` output pinned byte for byte.

Each file under tests/golden/ is the stdout of

    PYTHONPATH=src python -m descartes_folium verify --field <field> \
        --suite all --seed 0 --samples 40 [--format json]

so any change to a property, its cases, its order or its report shows up
here.  Both formats of one field share a single run_report call.
"""

from pathlib import Path

import pytest

from descartes_folium import cli, verify

GOLDEN = Path(__file__).resolve().parent / "golden"
FIELDS = ("fp:2", "fp:5", "fp:7", "fp:13", "q")


_REPORTS: dict = {}
# Captured once: the test patches verify.run_report, which the CLI reads at call time.
_RUN_REPORT = verify.run_report


def _shared_report(curve, name, seed, samples):
    key = (curve.field.spec_string(), str(curve.a), name, seed, samples)
    if key not in _REPORTS:
        _REPORTS[key] = _RUN_REPORT(curve, name, seed=seed, samples=samples)
    return _REPORTS[key]


@pytest.mark.parametrize("fmt", ("txt", "json"))
@pytest.mark.parametrize("field", FIELDS)
def test_verify_all_matches_golden(field, fmt, monkeypatch, capsys):
    monkeypatch.setattr(verify, "run_report", _shared_report)
    argv = ["verify", "--field", field, "--suite", "all", "--seed", "0", "--samples", "40"]
    if fmt == "json":
        argv += ["--format", "json"]
    assert cli.main(argv) == 0
    expected = (GOLDEN / f"verify_all_{field.replace(':', '')}.{fmt}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
