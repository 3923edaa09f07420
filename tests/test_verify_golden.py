"""`folium verify --suite all` output pinned byte for byte.

Each file under tests/golden/ is the stdout of

    PYTHONPATH=src python -m descartes_folium verify --field <field> \
        --suite all --seed 0 --samples 40 [--format json]

so any change to a property, its cases, its order or its report shows up
here.  Both formats of one field share a single run_report call.

The 22 run_report digests pin the larger reports too: fp:2 with a = 1, and
fp:5, 7, 13, 31 and q with a = 1 and 2, each at seeds 0 and 1 with 200
samples.  A digest is the first 16 hex digits of the SHA-256 of the report
as JSON with sorted keys, as benchmarks/workloads.py computes it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from descartes_folium import Folium, cli, field_from_spec, verify

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


REPORT_DIGESTS = {
    ("fp:2", 1, 0): "427d0e9b2f5c4a51",
    ("fp:2", 1, 1): "427d0e9b2f5c4a51",
    ("fp:5", 1, 0): "a2f7fa40307ece6e",
    ("fp:5", 1, 1): "a2f7fa40307ece6e",
    ("fp:5", 2, 0): "1b48e45cbf33a250",
    ("fp:5", 2, 1): "1b48e45cbf33a250",
    ("fp:7", 1, 0): "206525928ee8757f",
    ("fp:7", 1, 1): "206525928ee8757f",
    ("fp:7", 2, 0): "537c94d8e0871441",
    ("fp:7", 2, 1): "537c94d8e0871441",
    ("fp:13", 1, 0): "a4fb607fe4cc51e8",
    ("fp:13", 1, 1): "a4fb607fe4cc51e8",
    ("fp:13", 2, 0): "cb09ec367128ae9c",
    ("fp:13", 2, 1): "cb09ec367128ae9c",
    ("fp:31", 1, 0): "6939a27eaf19f776",
    ("fp:31", 1, 1): "6939a27eaf19f776",
    ("fp:31", 2, 0): "8f552075ffa21180",
    ("fp:31", 2, 1): "8f552075ffa21180",
    ("q", 1, 0): "95069a2dc95c82e9",
    ("q", 1, 1): "9905da528ad10e81",
    ("q", 2, 0): "96b061f650bbc86c",
    ("q", 2, 1): "77fd394b073c634d",
}


@pytest.mark.parametrize("spec, a, seed", REPORT_DIGESTS)
def test_run_report_keeps_its_digest(spec, a, seed):
    report = verify.run_report(Folium(field_from_spec(spec), a), "all", seed, 200)
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]
    assert digest == REPORT_DIGESTS[spec, a, seed]
