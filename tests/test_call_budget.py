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

A second tripwire counts a fixed mix of single calls on points built from
scaled raw coordinates over q and fp:65537, the shape of the `ops-coords`
benchmark: each LawKind through apply_law, law_inverse, third_intersection,
collinear3 and perp, with the points' construction inside the count.

Each ceiling is the count read on CPython 3.11.7, the same in every
process: no run keys a cache on an element, whose hash reads its field's
address (tests/test_verify_golden.py checks this).  On earlier trees 3.10
read no higher (over q, one call lower), and 3.12 and 3.13 read lower, since
a comprehension there makes no frame.  The ratchet: a change that lowers a
count lowers its ceiling with it, and a change that raises one says why in
CHANGES.md.  A call is not a unit of time, so this is a tripwire; the
committed BENCH pairs stay the only speed claims.
"""

import cProfile
import os
import random
from fractions import Fraction

import pytest

import descartes_folium
from descartes_folium import Folium, LawKind, ProjectivePoint, field_from_spec
from descartes_folium.geometry import collinear3, third_intersection
from descartes_folium.laws import apply_law, law_inverse, perp
from descartes_folium.verify import run_report

PACKAGE = os.path.dirname(descartes_folium.__file__) + os.sep
CEILINGS = {"fp:5": 100_911, "fp:13": 255_662, "fp:31": 325_312, "q": 418_219}
OPS_CEILING = 1_082


def package_calls(run) -> int:
    """The calls of package frames while `run()` runs."""
    profile = cProfile.Profile()
    profile.enable()
    run()
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
    return package_calls(lambda: run_report(curve, "all", 1, 200))


def _raw_triples(field, rng):
    """Endless seeded triples s pbar(t) = (3ts, 3t^2 s, (1 + t^3) s) of plain values, a = 1, off the node and infinity."""
    p = field.characteristic
    while True:
        if p:
            t, s = rng.randrange(1, p - 1), rng.randrange(1, p)
            yield 3 * t * s % p, 3 * t * t * s % p, (1 + t**3) * s % p
        else:
            t = Fraction(rng.randint(-(2**31), 2**31), rng.randint(1, 2**31))
            s = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
            yield 3 * t * s, 3 * t * t * s, (1 + t**3) * s


def _ops_mix() -> list:
    """(curve, call, raw triples) of each single call in the mix."""
    rng, mix = random.Random(37), []
    for spec in ("q", "fp:65537"):
        curve = Folium(field_from_spec(spec), 1)
        triples = _raw_triples(curve.field, rng)
        for kind in LawKind:
            mix.append((curve, lambda c, P, Q, kind=kind: apply_law(c, kind, P, Q), [next(triples), next(triples)]))
            mix.append((curve, lambda c, P, kind=kind: law_inverse(c, kind, P), [next(triples)]))
        mix.append((curve, third_intersection, [next(triples), next(triples)]))
        mix.append((curve, collinear3, [next(triples), next(triples), next(triples)]))
        mix.append((curve, perp, [next(triples)]))
    return mix


def ops_calls() -> int:
    """The package-frame calls of the ops mix, each call's points built from their raw triples inside the count."""
    mix = _ops_mix()

    def run():
        for curve, call, triples in mix:
            call(curve, *[ProjectivePoint.of(curve.field, *triple) for triple in triples])

    return package_calls(run)


@pytest.mark.parametrize("spec", CEILINGS)
def test_a_warm_verify_report_stays_within_its_call_budget(spec):
    calls = warm_calls(spec)
    assert calls <= CEILINGS[spec], f"{spec}: {calls:,} package-frame calls, over the ceiling of {CEILINGS[spec]:,}"


def test_the_ops_mix_stays_within_its_call_budget():
    calls = ops_calls()
    assert calls <= OPS_CEILING, f"ops: {calls:,} package-frame calls, over the ceiling of {OPS_CEILING:,}"


def main() -> None:
    for spec, ceiling in CEILINGS.items():
        print(f"{spec:8} {warm_calls(spec):>9,} calls, ceiling {ceiling:>9,}")
    print(f"{'ops':8} {ops_calls():>9,} calls, ceiling {OPS_CEILING:>9,}")


if __name__ == "__main__":
    main()
