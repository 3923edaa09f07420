"""A call budget: package-frame calls of one warm verify report stay under committed ceilings.

    PYTHONPATH=src python3 tests/test_call_budget.py

One call's CPU time varies by 5-50% from one process to the next on a shared
machine, so a slowdown of a few percent passes every timed check.  A call
count does not vary: cProfile counts the calls of every frame whose code lies
in src/descartes_folium during one `run_report(curve, "all", 1, 200)` with
a = 1, after a first report on the same curve has warmed its caches.  Package
frames only, so the counts do not depend on the standard library of each
Python version.  Run as a script, it prints each field's count next to its
ceiling, as the CI job does on every Python version it tests.

Each ceiling is the count read on CPython 3.11.7.  On earlier trees 3.10
read no higher (over q, one call lower), and 3.12 and 3.13 read lower, since
a comprehension there makes no frame.  The ratchet: a change that lowers a
count lowers its ceiling with it, and a change that raises one says why in
CHANGES.md.  A call is not a unit of time, so this is a tripwire; the
committed BENCH pairs stay the only speed claims.
"""

import cProfile
import os

import pytest

import descartes_folium
from descartes_folium import Folium, field_from_spec
from descartes_folium.verify import run_report

PACKAGE = os.path.dirname(descartes_folium.__file__) + os.sep
CEILINGS = {"fp:5": 101_821, "fp:13": 266_404, "fp:31": 368_749, "q": 446_991}


def package_calls(curve: Folium) -> int:
    """The calls of package frames during one report on a curve already reported on once."""
    profile = cProfile.Profile()
    profile.enable()
    run_report(curve, "all", 1, 200)
    profile.disable()
    return sum(
        entry.callcount
        for entry in profile.getstats()
        if not isinstance(entry.code, str) and entry.code.co_filename.startswith(PACKAGE)
    )


def warm_calls(spec: str) -> int:
    """The package-frame calls of the second of two reports over the field named by `spec`."""
    curve = Folium(field_from_spec(spec), 1)
    run_report(curve, "all", 1, 200)
    return package_calls(curve)


@pytest.mark.parametrize("spec", CEILINGS)
def test_a_warm_verify_report_stays_within_its_call_budget(spec):
    calls = warm_calls(spec)
    assert calls <= CEILINGS[spec], f"{spec}: {calls:,} package-frame calls, over the ceiling of {CEILINGS[spec]:,}"


def main() -> None:
    for spec, ceiling in CEILINGS.items():
        print(f"{spec:8} {warm_calls(spec):>9,} calls, ceiling {ceiling:>9,}")


if __name__ == "__main__":
    main()
