"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance here is exact equality, and the stated runtime
budgets are asserted where the criterion pins one.
"""

import itertools
import json
import random
import time

from descartes_folium import (
    DivisionByZeroPoint,
    LawKind,
    add_south,
    add_west,
    apply_law,
    chord_or_tangent,
    collinear3,
    folium_inv,
    folium_mul,
    geometric_mul,
    geometric_mul_via_vertex,
    law_inverse,
    law_neutral,
    all_lines,
    line_curve_intersections,
    pbar,
    pbar_inv,
    pbarbar,
    perp,
    perpendicular_chord_check,
    proj_inv,
    proj_mul,
    proj_mul2,
    sigma,
    star_mul,
    third_intersection,
)
from descartes_folium.branches import BranchLabel, classify_branch
from helpers import (
    affine_points,
    nonzero_points,
    prime_curve,
    python_process,
    random_fraction,
    random_nonzero_fraction,
    rational_curve,
)


def _finish(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {number}: {status} — {description}")
    assert not failures, failures[:5]


def _random_q_point(curve, rng, nonzero=False):
    t = random_nonzero_fraction(rng) if nonzero else random_fraction(rng)
    return pbar(curve, curve.field.element(t))


def test_criterion_01_point_count_oracle():
    failures = []
    started = time.monotonic()
    for p in (2, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for a in (1, 2):
            if a % p == 0:
                continue
            points = prime_curve(p, a).enumerate_points()
            if len(points) != p or len(set(points)) != p:
                failures.append(f"fp:{p} a={a}: {len(points)} points")
    elapsed = time.monotonic() - started
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _finish(1, f"brute-force point counts equal p for 10 primes, a in {{1,2}} ({elapsed:.2f}s)", failures)


def _law_pool(curve, law):
    if law in (LawKind.PROJ_MUL, LawKind.PROJ_MUL2, LawKind.STAR_MUL):
        return nonzero_points(curve)
    if law in (LawKind.SOUTH_MUL, LawKind.WEST_MUL):
        return affine_points(curve)
    return curve.enumerate_points()


def _check_group_axioms(curve, law, failures):
    pool = _law_pool(curve, law)
    neutral = law_neutral(curve, law)
    tag = f"{curve.field.spec_string()} a={curve.a} {law.value}"
    for point in pool:
        if apply_law(curve, law, point, neutral) != point:
            failures.append(f"{tag}: neutral fails at {point}")
            return
        if law is LawKind.FIELD_MUL and point == curve.origin:
            try:
                law_inverse(curve, law, point)
                failures.append(f"{tag}: node unexpectedly invertible")
                return
            except DivisionByZeroPoint:
                pass
        else:
            inverse = law_inverse(curve, law, point)
            if apply_law(curve, law, point, inverse) != neutral:
                failures.append(f"{tag}: inverse fails at {point}")
                return
    for p1, p2 in itertools.product(pool, repeat=2):
        if apply_law(curve, law, p1, p2) != apply_law(curve, law, p2, p1):
            failures.append(f"{tag}: commutativity fails at {p1}, {p2}")
            return
    for p1, p2, p3 in itertools.product(pool, repeat=3):
        lhs = apply_law(curve, law, apply_law(curve, law, p1, p2), p3)
        rhs = apply_law(curve, law, p1, apply_law(curve, law, p2, p3))
        if lhs != rhs:
            failures.append(f"{tag}: associativity fails at {p1}, {p2}, {p3}")
            return


def test_criterion_02_group_axioms_exhaustive():
    failures = []
    started = time.monotonic()
    main_laws = (
        LawKind.PROJ_MUL,
        LawKind.PROJ_MUL2,
        LawKind.STAR_MUL,
        LawKind.ADD_SOUTH,
        LawKind.ADD_WEST,
        LawKind.FIELD_MUL,
    )
    for p in (5, 11, 13):
        for a in (1, 2):
            curve = prime_curve(p, a)
            for law in main_laws:
                _check_group_axioms(curve, law, failures)
    for p in (5, 11):  # p = 2 mod 3: the affine exotic laws exist
        for a in (1, 2):
            curve = prime_curve(p, a)
            for law in (LawKind.SOUTH_MUL, LawKind.WEST_MUL):
                _check_group_axioms(curve, law, failures)
    elapsed = time.monotonic() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 10s")
    _finish(2, f"group axioms exhaustive for all eight laws over F5/F11/F13 ({elapsed:.2f}s)", failures)


def test_criterion_03_law_coincidence():
    failures = []
    for p in (5, 11, 13):
        for a in (1, 2):
            curve = prime_curve(p, a)
            for p1, p2 in itertools.product(nonzero_points(curve), repeat=2):
                if proj_mul(curve, p1, p2) != proj_mul2(curve, p1, p2):
                    failures.append(f"fp:{p} a={a}: {p1}, {p2}")
    rng = random.Random(0)
    curve = rational_curve(1)
    for _ in range(1000):
        p1 = _random_q_point(curve, rng, nonzero=True)
        p2 = _random_q_point(curve, rng, nonzero=True)
        if proj_mul(curve, p1, p2) != proj_mul2(curve, p1, p2):
            failures.append(f"q: {p1}, {p2}")
    _finish(3, "proj_mul equals proj_mul2 on all finite pairs and 10^3 rational pairs", failures)


def test_criterion_04_geometric_oracle():
    failures = []

    def check(curve, p1, p2, tag):
        expected = proj_mul(curve, p1, p2)
        third = third_intersection(curve, p1, p2)
        line = chord_or_tangent(curve, p1, p2)
        if geometric_mul(curve, p1, p2) != expected:
            failures.append(f"{tag}: perp route differs at {p1}, {p2}")
        if geometric_mul_via_vertex(curve, p1, p2) != expected:
            failures.append(f"{tag}: vertex route differs at {p1}, {p2}")
        if not line.contains(third):
            failures.append(f"{tag}: third intersection off the chord at {p1}, {p2}")

    for p in (5, 7, 11, 13):
        for a in (1, 2):
            curve = prime_curve(p, a)
            for p1, p2 in itertools.product(nonzero_points(curve), repeat=2):
                check(curve, p1, p2, f"fp:{p} a={a}")
    rng = random.Random(0)
    curve = rational_curve(1)
    for _ in range(1000):
        p1 = _random_q_point(curve, rng, nonzero=True)
        p2 = _random_q_point(curve, rng, nonzero=True)
        check(curve, p1, p2, "q")
    _finish(4, "chord-tangent products equal the transported law; thirds stay incident", failures)


def test_criterion_05_collinearity_equivalence_exhaustive():
    failures = []
    started = time.monotonic()
    for p in (5, 11):
        curve = prime_curve(p)
        field = curve.field
        minus_one = -field.one
        infinity = curve.infinity
        for line in all_lines(field):
            if line.through_origin:
                continue
            on_line = [
                pt for pt in curve.enumerate_points()
                if pt != curve.origin and line.contains(pt)
            ]
            intersections = line_curve_intersections(curve, line)
            total = sum(mult for _, mult in intersections)
            if {pt for pt, _ in intersections} != set(on_line):
                failures.append(f"fp:{p} {line}: root points differ from incident points")
                continue
            if len(on_line) >= 2 and total != 3:
                failures.append(f"fp:{p} {line}: two distinct points but not fully split")
                continue
            if total != 3:
                continue
            triple = []
            for point, mult in intersections:
                triple.extend([point] * mult)
            p1, p2, p3 = triple
            if not (p1.x * p2.x * p3.x + p1.y * p2.y * p3.y).is_zero():
                failures.append(f"fp:{p} {line}: coordinate identity fails")
            t_product = pbar_inv(curve, p1) * pbar_inv(curve, p2) * pbar_inv(curve, p3)
            if t_product != minus_one:
                failures.append(f"fp:{p} {line}: slope product is {t_product}")
            if proj_mul(curve, proj_mul(curve, p1, p2), p3) != infinity:
                failures.append(f"fp:{p} {line}: dot product is not I")
            if star_mul(curve, star_mul(curve, p1, p2), p3) != infinity:
                failures.append(f"fp:{p} {line}: star product is not I")
        # converse: every parameter triple with product -1 is collinear
        for r1 in range(1, p):
            for r2 in range(1, p):
                t1, t2 = field.element(r1), field.element(r2)
                t3 = minus_one / (t1 * t2)
                p1, p2, p3 = (pbar(curve, t) for t in (t1, t2, t3))
                if not collinear3(curve, p1, p2, p3):
                    failures.append(f"fp:{p}: triple {t1},{t2},{t3} not collinear")
                elif not chord_or_tangent(curve, p1, p2).contains(p3):
                    failures.append(f"fp:{p}: third point {t3} off the chord")
    elapsed = time.monotonic() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 10s")
    _finish(5, f"all split lines of P2(F5)/P2(F11) satisfy the four collinearity forms ({elapsed:.2f}s)", failures)


def _identity_catalog_cases(curve, rng=None, cases=1000):
    if rng is None:
        points = nonzero_points(curve)
        pairs = list(itertools.product(points, repeat=2))
        singles = points
        chains = []
        for length in range(2, 8):
            chains.extend(itertools.product(points, repeat=length))
    else:
        pairs = [
            (_random_q_point(curve, rng, nonzero=True), _random_q_point(curve, rng, nonzero=True))
            for _ in range(cases)
        ]
        singles = [_random_q_point(curve, rng, nonzero=True) for _ in range(cases)]
        chains = []
        for length in range(2, 8):
            for _ in range(cases // 10):
                chains.append(tuple(_random_q_point(curve, rng, nonzero=True) for _ in range(length)))
    return pairs, singles, chains


def _check_identity_catalog(curve, pairs, singles, chains, failures, tag):
    infinity = curve.infinity
    vertex = curve.vertex()
    if proj_mul(curve, infinity, infinity) != vertex:
        failures.append(f"{tag}: I*I != V")
    if proj_mul(curve, proj_mul(curve, infinity, infinity), infinity) != infinity:
        failures.append(f"{tag}: I^3 != I")
    if perp(curve, infinity) != vertex or perp(curve, vertex) != infinity:
        failures.append(f"{tag}: perp does not exchange I and V")
    for p1, p2 in pairs:
        if star_mul(curve, p1, p2) != proj_mul(curve, proj_mul(curve, p1, p2), infinity):
            failures.append(f"{tag}: star != dot*I at {p1}, {p2}")
            break
        if proj_mul(curve, p1, p2) != star_mul(curve, star_mul(curve, p1, p2), vertex):
            failures.append(f"{tag}: dot != star*V at {p1}, {p2}")
            break
    for point in singles:
        inverse = proj_inv(curve, point)
        expected = perp(curve, point)
        if expected != proj_mul(curve, inverse, infinity):
            failures.append(f"{tag}: perp != inv*I at {point}")
            break
        if expected != star_mul(curve, inverse, vertex):
            failures.append(f"{tag}: perp != inv star V at {point}")
            break
        if perp(curve, expected) != point:
            failures.append(f"{tag}: perp not involutive at {point}")
            break
    for chain in chains:
        star_acc, dot_acc = chain[0], chain[0]
        for point in chain[1:]:
            star_acc = star_mul(curve, star_acc, point)
            dot_acc = proj_mul(curve, dot_acc, point)
        if len(chain) % 2 == 0:
            ok = star_acc == proj_mul(curve, dot_acc, infinity) and dot_acc == star_mul(
                curve, star_acc, vertex
            )
        else:
            ok = star_acc == dot_acc
        if not ok:
            failures.append(f"{tag}: parity chain of length {len(chain)} fails")
            break


def test_criterion_06_identity_catalog():
    failures = []
    for a in (1, 2):
        curve = prime_curve(5, a)
        pairs, singles, chains = _identity_catalog_cases(curve)
        _check_identity_catalog(curve, pairs, singles, chains, failures, f"fp:5 a={a}")
    for a in (1, 2, -3):
        curve = rational_curve(a)
        rng = random.Random(0)
        pairs, singles, chains = _identity_catalog_cases(curve, rng, cases=1000)
        _check_identity_catalog(curve, pairs, singles, chains, failures, f"q a={a}")
    _finish(6, "star/dot identity catalog incl. 7-factor parity chains, exhaustive over F5", failures)


def test_criterion_07_field_isomorphism():
    failures = []
    curve = prime_curve(5)
    field = curve.field
    elements = [field.element(r) for r in range(5)]
    for u, v in itertools.product(elements, repeat=2):
        if add_south(curve, pbar(curve, u), pbar(curve, v)) != pbar(curve, u + v):
            failures.append(f"addition table fails at {u}, {v}")
        if folium_mul(curve, pbar(curve, u), pbar(curve, v)) != pbar(curve, u * v):
            failures.append(f"multiplication table fails at {u}, {v}")
    points = curve.enumerate_points()
    for p1, p2, p3 in itertools.product(points, repeat=3):
        lhs = folium_mul(curve, p1, add_south(curve, p2, p3))
        rhs = add_south(curve, folium_mul(curve, p1, p2), folium_mul(curve, p1, p3))
        if lhs != rhs:
            failures.append(f"distributivity fails at {p1}, {p2}, {p3}")
    for p1, p2 in itertools.product(points, repeat=2):
        if sigma(add_south(curve, p1, p2)) != add_west(curve, sigma(p1), sigma(p2)):
            failures.append(f"sigma additive homomorphism fails at {p1}, {p2}")
        if sigma(folium_mul(curve, p1, p2)) != folium_mul(curve, sigma(p1), sigma(p2)):
            failures.append(f"sigma multiplicative homomorphism fails at {p1}, {p2}")
    # the second structure is a field isomorphic image under pbarbar as well
    for u, v in itertools.product(elements, repeat=2):
        if add_west(curve, pbarbar(curve, u), pbarbar(curve, v)) != pbarbar(curve, u + v):
            failures.append(f"west addition table fails at {u}, {v}")
        if folium_mul(curve, pbarbar(curve, u), pbarbar(curve, v)) != pbarbar(curve, u * v):
            failures.append(f"west multiplication table fails at {u}, {v}")
    try:
        folium_inv(curve, curve.origin)
        failures.append("node inversion unexpectedly succeeded")
    except DivisionByZeroPoint:
        pass
    _finish(7, "F5 tables transport exactly; sigma is a field isomorphism between the two structures", failures)


def test_criterion_08_perpendicularity_corollary():
    failures = []
    curve = rational_curve(1)
    vertex = curve.vertex()
    rng = random.Random(0)
    checked = 0
    while checked < 1000:
        t = random_nonzero_fraction(rng)
        if t in (1, -1):
            continue
        point = pbar(curve, curve.field.element(t))
        partner = third_intersection(curve, vertex, point)
        if not (point.x * partner.x + point.y * partner.y).is_zero():
            failures.append(f"vertex chord at t={t} is not perpendicular")
        if not perpendicular_chord_check(curve, point, partner):
            failures.append(f"perpendicular check rejects t={t}")
        if not collinear3(curve, vertex, point, partner):
            failures.append(f"converse fails: perpendicular pair at t={t} not with V")
        partner2 = pbar(curve, -curve.field.element(t).inverse())
        if partner2 != partner:
            failures.append(f"perpendicular partner mismatch at t={t}")
        checked += 1
    _finish(8, "vertex chords give perpendicular node chords and conversely (10^3 rational points)", failures)


def test_criterion_09_branch_sigma_symmetry():
    failures = []
    swap = {
        BranchLabel.SOUTH_INTERIOR: BranchLabel.WEST_INTERIOR,
        BranchLabel.WEST_INTERIOR: BranchLabel.SOUTH_INTERIOR,
        BranchLabel.VERTEX: BranchLabel.VERTEX,
        BranchLabel.NODE: BranchLabel.NODE,
    }
    curve = rational_curve(1)
    rng = random.Random(0)
    checked = 0
    while checked < 1000:
        t = random_fraction(rng)
        if t == -1:
            continue
        point = pbar(curve, curve.field.element(t))
        if classify_branch(curve, sigma(point)) != swap[classify_branch(curve, point)]:
            failures.append(f"sigma does not swap labels at t={t}")
        checked += 1
    _finish(9, "sigma swaps the branch interiors and fixes node and vertex (10^3 points)", failures)


def test_criterion_10_cli_determinism(tmp_path):
    failures = []
    for field in ("fp:5", "q"):
        argv = (
            "verify", "--field", field, "--a", "1", "--suite", "all",
            "--seed", "0", "--samples", "200", "--format", "json",
        )
        # two fresh processes, so no state one run leaves in memory reaches the other
        first, second = (python_process("-m", "descartes_folium", *argv) for _ in range(2))
        if first.returncode != 0 or second.returncode != 0:
            failures.append(f"verify over {field} exited {first.returncode}/{second.returncode}")
        if first.stdout != second.stdout:
            failures.append(f"verify over {field} is not byte-identical")
        report = json.loads(first.stdout)
        if not all(prop["passed"] for prop in report["properties"]):
            failures.append(f"verify over {field} reports failures")
    plot_argv = (
        "plot", "--a", "1", "--t-min", "-0.9", "--t-max", "4",
        "--samples", "200", "--overlay", "chord:2,3",
    )
    one, two = tmp_path / "one.svg", tmp_path / "two.svg"
    python_process("-m", "descartes_folium", *plot_argv, "--out", str(one))
    python_process("-m", "descartes_folium", *plot_argv, "--out", str(two))
    if one.read_bytes() != two.read_bytes():
        failures.append("plot output is not byte-stable")
    _finish(10, "verify --suite all --seed 0 and plot output are byte-identical across runs", failures)
