"""Chord-tangent constructions cross-validated against the transported laws."""

import itertools
import random
import time
from fractions import Fraction
from math import isqrt, lcm

import pytest

from descartes_folium import (
    CoincidentPoints,
    Folium,
    LineThroughOrigin,
    MixedFields,
    NotOnCurve,
    OriginNotAllowed,
    PointAtInfinity,
    PrimeField,
    ProjectiveLine,
    ProjectivePoint,
    Rationals,
    SingularPoint,
    UnorderedField,
    VertexNotAllowed,
    all_lines,
    chord_or_tangent,
    collinear3,
    field_from_spec,
    geometric_mul,
    geometric_mul_via_vertex,
    line_curve_intersections,
    line_through,
    pbar,
    pbar_inv,
    perp,
    perpendicular_chord_check,
    proj_mul,
    slope_cubic,
    slope_cubic_check,
    star_mul,
    tangent_at,
    third_intersection,
)
from descartes_folium import fields, geometry, parametrization
from descartes_folium.geometry import roots_with_multiplicity
from helpers import nonzero_points, prime_curve, random_nonzero_fraction, rational_curve


def q_point(curve, t):
    return pbar(curve, curve.field.element(Fraction(t)))


def test_line_through_examples():
    q = Rationals()
    line = line_through(ProjectivePoint.of(q, 1, 0, 1), ProjectivePoint.of(q, 0, 1, 1))
    assert line == ProjectiveLine.of(q, 1, 1, -1)
    curve = rational_curve(1)
    node_chord = line_through(curve.origin, curve.infinity)
    assert node_chord == ProjectiveLine.of(q, 1, 1, 0)
    point = curve.point(Fraction(2, 3), Fraction(4, 3))
    symmetric = line_through(point, ProjectivePoint.of(q, Fraction(4, 3), Fraction(2, 3), 1))
    assert symmetric.m == symmetric.n
    assert symmetric.contains(point)


def test_line_through_rejects_coincident_points():
    curve = rational_curve(1)
    with pytest.raises(CoincidentPoints):
        line_through(curve.origin, curve.origin)


def _reference_line(p1, p2):
    """The line through two distinct points by element arithmetic: the cross product, then ProjectiveLine."""
    return ProjectiveLine(p1.y * p2.z - p1.z * p2.y, p1.z * p2.x - p1.x * p2.z, p1.x * p2.y - p1.y * p2.x)


def _plane_points(field):
    """Every point of P^2(F_p) in canonical form: the node and the points at infinity among them."""
    residues = range(field.characteristic)
    points = [ProjectivePoint.of(field, x, y, 1) for x in residues for y in residues]
    return points + [ProjectivePoint.of(field, 1, y, 0) for y in residues] + [ProjectivePoint.of(field, 0, 1, 0)]


def _seeded_points(field, seed):
    """Seeded points: every one with coordinates in -1..1, and random ones, at high height and negative over q."""
    rng, p = random.Random(seed), field.characteristic
    small = {ProjectivePoint.of(field, *triple) for triple in itertools.product(range(-1, 2), repeat=3) if any(triple)}
    drawn = []
    for _ in range(80):
        if p:
            triple = [rng.randrange(p) for _ in range(3)]
        else:
            height = rng.choice((12, 2**40))
            triple = [Fraction(rng.randint(-height, height), rng.randint(1, height)) for _ in range(3)]
        for index in rng.sample(range(3), rng.choice((0, 0, 1, 2))):  # the node, points at infinity, axes
            triple[index] = 0
        if any(triple):
            drawn.append(ProjectivePoint.of(field, *triple))
    curve = Folium(field, 1)
    drawn += [curve.origin, curve.infinity, curve.vertex()]
    return sorted(small, key=str) + drawn


@pytest.mark.parametrize("spec", ["fp:5", "fp:7", "fp:13", "fp:65537", "q"])
def test_line_through_matches_the_element_cross_product(spec):
    field = field_from_spec(spec)
    points = _plane_points(field) if field.characteristic <= 13 and field.characteristic else _seeded_points(field, 37)
    pairs = 0
    for p1, p2 in itertools.permutations(points, 2):
        if p1 == p2:
            continue
        line, expected = line_through(p1, p2), _reference_line(p1, p2)
        assert line == expected, (p1, p2)
        coefficients = (line.m.value, line.n.value, line.p.value)
        assert all(type(value) is (int if field.characteristic else Fraction) for value in coefficients), (p1, p2)
        assert all(element.field is field for element in (line.m, line.n, line.p))
        pairs += 1
    assert pairs >= 900


def test_line_through_keeps_its_error_types_and_texts():
    q, f5 = Rationals(), PrimeField(5)
    point = ProjectivePoint.of(q, 2, 4, 3)
    with pytest.raises(CoincidentPoints) as refusal:
        line_through(point, ProjectivePoint.of(q, 4, 8, 6))
    assert type(refusal.value) is CoincidentPoints
    assert str(refusal.value) == "(2/3 : 4/3 : 1) and (2/3 : 4/3 : 1) do not span a line"
    for p1, p2, text in [
        (point, ProjectivePoint.of(f5, 0, 1, 0), "cannot combine elements of q and fp:5"),
        (ProjectivePoint.of(f5, 1, 1, 1), point, "cannot combine elements of fp:5 and q"),
        (ProjectivePoint.of(f5, 1, 1, 1), ProjectivePoint.of(PrimeField(7), 1, 1, 1), "cannot combine elements of fp:5 and fp:7"),
    ]:
        with pytest.raises(MixedFields) as refusal:
            line_through(p1, p2)
        assert type(refusal.value) is MixedFields and str(refusal.value) == text


def test_tangent_examples():
    curve = rational_curve(1)
    q = curve.field
    assert tangent_at(curve, curve.vertex()) == ProjectiveLine.of(q, 1, 1, -3)
    assert tangent_at(curve, curve.infinity) == ProjectiveLine.of(q, 1, 1, 1)
    assert tangent_at(curve, curve.vertex()).contains(curve.infinity)
    with pytest.raises(SingularPoint):
        tangent_at(curve, curve.origin)
    with pytest.raises(NotOnCurve):
        tangent_at(curve, curve.point(1, 1))


def test_tangent_touches_curve_at_base_point():
    curve = rational_curve(2)
    rng = random.Random(20)
    for _ in range(100):
        point = q_point(curve, random_nonzero_fraction(rng))
        assert tangent_at(curve, point).contains(point)


def test_third_intersection_examples():
    curve = rational_curve(1)
    p2, p3 = q_point(curve, 2), q_point(curve, 3)
    assert third_intersection(curve, p2, p3) == q_point(curve, Fraction(-1, 6))
    assert third_intersection(curve, curve.vertex(), curve.vertex()) == curve.infinity
    assert third_intersection(curve, curve.infinity, curve.infinity) == curve.infinity
    with pytest.raises(OriginNotAllowed):
        third_intersection(curve, curve.origin, p2)


def test_third_intersection_lies_on_the_line():
    curve = rational_curve(1)
    rng = random.Random(21)
    for _ in range(300):
        p1 = q_point(curve, random_nonzero_fraction(rng))
        p2 = q_point(curve, random_nonzero_fraction(rng))
        line = chord_or_tangent(curve, p1, p2)
        third = third_intersection(curve, p1, p2)
        assert line.contains(third)
        assert third != curve.origin


def test_collinear3_examples():
    curve = rational_curve(1)
    assert collinear3(curve, q_point(curve, 2), q_point(curve, 3), q_point(curve, Fraction(-1, 6)))
    assert collinear3(curve, curve.origin, q_point(curve, 5), q_point(curve, Fraction(2, 7)))
    vertex = curve.vertex()
    assert not collinear3(curve, vertex, vertex, vertex)
    with pytest.raises(NotOnCurve):
        collinear3(curve, curve.point(1, 1), vertex, vertex)


def _collinear3_pools():
    """(curve, triples): q at 2^31 heights and fp:65537 drawn, with each chord's third point; fp:7 whole."""
    rng, height = random.Random(22), 2**31
    for curve, draw in (
        (rational_curve(1), lambda: Fraction(rng.randint(-height, height), rng.randint(1, height))),
        (rational_curve(Fraction(-5, 7)), lambda: Fraction(rng.randint(-height, height), rng.randint(1, height))),
        (prime_curve(65537, 2), lambda: rng.randrange(1, 65537)),
    ):
        special = [curve.origin, curve.infinity, curve.vertex(), *curve.special_points().points_at_infinity]
        points = special + [pbar(curve, draw()) for _ in range(8)]
        triples = list(itertools.product(points[:6], repeat=3))
        triples += [tuple(rng.choice(points) for _ in range(3)) for _ in range(200)]
        for P, Q in itertools.product(points[3:], repeat=2):
            if P != curve.origin and Q != curve.origin:
                triples.append((P, Q, third_intersection(curve, P, Q)))
        yield curve, triples
    curve = prime_curve(7, 2)
    yield curve, list(itertools.product(curve.enumerate_points(), repeat=3))


@pytest.mark.parametrize("curve, triples", list(_collinear3_pools()), ids=["q:a=1", "q:a=-5/7", "fp:65537", "fp:7"])
def test_collinear3_on_stored_values_matches_element_arithmetic(curve, triples):
    answers = set()
    for p1, p2, p3 in triples:
        expected = (p1.x * p2.x * p3.x + p1.y * p2.y * p3.y).is_zero()
        assert collinear3(curve, p1, p2, p3) is expected, (p1, p2, p3)
        answers.add(expected)
    assert answers == {True, False}


def test_geometric_mul_matches_projmul_exhaustive_f5():
    curve = prime_curve(5)
    points = nonzero_points(curve)
    for p1, p2 in itertools.product(points, repeat=2):
        expected = proj_mul(curve, p1, p2)
        assert geometric_mul(curve, p1, p2) == expected
        assert geometric_mul_via_vertex(curve, p1, p2) == expected


def test_geometric_mul_examples():
    curve = rational_curve(1)
    p2, p3 = q_point(curve, 2), q_point(curve, 3)
    assert geometric_mul(curve, p2, p3) == q_point(curve, 6)
    assert geometric_mul_via_vertex(curve, p2, p3) == q_point(curve, 6)
    for point in (p2, q_point(curve, Fraction(-5, 4))):
        assert geometric_mul(curve, point, curve.vertex()) == point
    vertex = curve.vertex()
    assert geometric_mul_via_vertex(curve, vertex, vertex) == vertex
    assert third_intersection(curve, vertex, curve.infinity) == vertex


def test_slope_cubic_for_known_chord():
    curve = rational_curve(1)
    q = curve.field
    line = chord_or_tangent(curve, q_point(curve, 2), q_point(curve, 3))
    c2, c1 = slope_cubic(curve, line)
    assert c2 == q.element(Fraction(-29, 6))
    assert c1 == q.element(Fraction(31, 6))
    roots = {t.value for (t, _) in _roots(curve, line)}
    assert roots == {Fraction(2), Fraction(3), Fraction(-1, 6)}
    assert slope_cubic_check(curve, line)


def _roots(curve, line):
    return [(pbar_inv(curve, point), mult) for point, mult in line_curve_intersections(curve, line)]


def test_slope_cubic_for_vertex_tangent():
    curve = rational_curve(1)
    line = tangent_at(curve, curve.vertex())
    pairs = sorted((t.value, mult) for t, mult in _roots(curve, line))
    assert pairs == [(Fraction(-1), 1), (Fraction(1), 2)]
    assert slope_cubic_check(curve, line)


def test_inflection_contact_at_infinity():
    curve = rational_curve(1)
    line = tangent_at(curve, curve.infinity)
    assert _roots(curve, line) == [(curve.field.element(-1), 3)]


def test_tangents_have_double_contact_in_the_slope_cubic():
    # independent routes: the tangent comes from the gradient, the contact
    # order from root multiplicities of the slope cubic
    rng = random.Random(23)
    for a in (1, Fraction(-3, 2)):
        curve = rational_curve(a)
        for _ in range(60):
            t = curve.field.element(random_nonzero_fraction(rng))
            point = pbar(curve, t)
            line = tangent_at(curve, point)
            if line.through_origin:
                continue  # cannot happen away from the node; guarded below
            multiplicities = dict(line_curve_intersections(curve, line))
            assert multiplicities.get(point, 0) >= 2
            assert sum(multiplicities.values()) == 3


def test_perp_preserves_affineness_away_from_vertex():
    curve = rational_curve(1)
    rng = random.Random(24)
    for _ in range(200):
        t = random_nonzero_fraction(rng)
        if t in (1, -1):
            continue
        perp_point = perp(curve, q_point(curve, t))
        assert perp_point == pbar(curve, -curve.field.element(t).inverse())
        assert perp_point.is_affine
        assert perp_point != curve.origin


def test_slope_cubic_rejects_lines_through_node():
    curve = rational_curve(1)
    line = ProjectiveLine.of(curve.field, 1, 1, 0)
    with pytest.raises(LineThroughOrigin):
        slope_cubic(curve, line)
    with pytest.raises(LineThroughOrigin):
        slope_cubic_check(curve, line)


def test_slope_cubic_check_fails_on_a_wrong_cubic_over_q(monkeypatch):
    # The wrong cubic mostly has no rational root, so every chord's points must
    # come from the line and the curve, not from the cubic under test.
    curve = rational_curve(1)
    params = [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 2), Fraction(5, 4)]
    chords = [
        chord_or_tangent(curve, q_point(curve, t1), q_point(curve, t2))
        for t1, t2 in itertools.combinations(params, 2)
    ]
    assert all(slope_cubic_check(curve, line) for line in chords)
    real = geometry.slope_cubic

    def shifted(curve, line):  # c2 off by one
        c2, c1 = real(curve, line)
        return c2 + 1, c1

    monkeypatch.setattr(geometry, "slope_cubic", shifted)
    assert [line for line in chords if slope_cubic_check(curve, line)] == []


def test_curve_points_on_a_line_over_q_need_no_chart_or_cubic(monkeypatch):
    # The chord through pbar(t1) and pbar(t2) meets the curve again at pbar(-1/(t1 t2)).
    curve = rational_curve(1)
    params = [1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 2)]
    cases = []
    for t1, t2 in itertools.combinations(params, 2):
        t3 = -1 / (Fraction(t1) * t2)
        cases.append((line_through(q_point(curve, t1), q_point(curve, t2)), {q_point(curve, t) for t in (t1, t2, t3)}))

    def refuse(*args, **kwargs):
        raise AssertionError("the line-point oracle used a chart or the slope cubic")

    forbidden = [pbar, pbar_inv, slope_cubic, line_curve_intersections]
    forbidden += [parametrization._pair_point, parametrization._pair_param, fields._pair_coordinates]
    for module in (geometry, parametrization, fields):
        for name, value in list(vars(module).items()):
            if any(value is f for f in forbidden):
                monkeypatch.setattr(module, name, refuse)
    for line, expected in cases:
        points = geometry._curve_points_on_line(curve, line)
        assert len(points) == len(set(points)) and set(points) == expected


def test_slope_cubic_check_over_f11():
    curve = prime_curve(11, a=2)
    points = nonzero_points(curve)
    for p1, p2 in itertools.product(points[:5], points[:5]):
        line = chord_or_tangent(curve, p1, p2)
        assert slope_cubic_check(curve, line)


@pytest.mark.parametrize("p", [2, 5, 7])
def test_all_lines_lists_each_line_of_the_plane_once(p):
    lines = list(all_lines(PrimeField(p)))
    assert len(lines) == len(set(lines)) == p * p + p + 1


def _roots_by_deflating_every_residue(p, coeffs):
    """(root, multiplicity) pairs of a monic int polynomial mod p, by synthetic division at each residue."""
    pairs = []
    for r in range(p):
        poly, multiplicity = coeffs, 0
        while len(poly) > 1:
            quotient = [poly[0]]
            for c in poly[1:]:
                quotient.append((quotient[-1] * r + c) % p)
            if quotient.pop():
                break
            poly, multiplicity = quotient, multiplicity + 1
        if multiplicity:
            pairs.append((r, multiplicity))
    return pairs


def _seeded_cubics_mod_31():
    # half with random coefficients, half built from three roots drawn from a few residues,
    # so double and triple roots occur
    rng = random.Random(31)
    cubics = []
    for i in range(300):
        if i % 2:
            cubics.append([1, *(rng.randrange(31) for _ in range(3))])
            continue
        poly = [1]
        for r in (rng.choice((0, 3, 30)) for _ in range(3)):
            poly = [(c - r * before) % 31 for c, before in zip(poly + [0], [0] + poly)]
        cubics.append(poly)
    return cubics


@pytest.mark.parametrize(
    "p, cubics",
    [(5, [[1, *rest] for rest in itertools.product(range(5), repeat=3)]), (31, _seeded_cubics_mod_31())],
    ids=["fp:5 all monic", "fp:31 seeded"],
)
def test_root_scan_matches_deflating_every_residue(p, cubics):
    field = PrimeField(p)
    multiplicities = set()
    for coeffs in cubics:
        found = roots_with_multiplicity(field, [field.element(c) for c in coeffs])
        assert [(root.value, mult) for root, mult in found] == _roots_by_deflating_every_residue(p, coeffs), coeffs
        multiplicities.update(mult for _, mult in found)
    assert multiplicities == {1, 2, 3}


def _rational_roots_by_divisor_scan(coeffs):
    """(root, multiplicity) pairs of a monic Fraction polynomial, by deflating every +-u/v.

    With the coefficients cleared to ints, u runs over the divisors of the last
    nonzero one and v over those of the lead; 0 is a candidate too.
    """
    scale = lcm(*(c.denominator for c in coeffs))
    cleared = [int(c * scale) for c in coeffs]
    last = [c for c in cleared if c][-1]

    def divisors(n):
        small = [i for i in range(1, isqrt(abs(n)) + 1) if n % i == 0]
        return {*small, *(abs(n) // i for i in small)}

    candidates = {Fraction(0)} | {Fraction(sign * u, v) for u in divisors(last) for v in divisors(scale) for sign in (1, -1)}
    pairs = []
    for r in sorted(candidates):
        poly, multiplicity = coeffs, 0
        while len(poly) > 1:
            quotient = [poly[0]]
            for c in poly[1:]:
                quotient.append(quotient[-1] * r + c)
            if quotient.pop():
                break
            poly, multiplicity = quotient, multiplicity + 1
        if multiplicity:
            pairs.append((r, multiplicity))
    return pairs


def _cubic_from(roots):
    r1, r2, r3 = roots
    return [Fraction(1), -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3]


def _seeded_rational_cubics():
    """Monic cubics over Q with single, double and triple roots, random coefficients, a derivative
    with a double root (zero discriminant) or with two rational roots (often a perfect-square
    discriminant once scaled to ints), double roots placed at those critical points, and every
    cubic whose roots lie among a few close values."""
    rng = random.Random(15)
    pool = [Fraction(n, d) for n in range(-9, 10) for d in (1, 2, 3, 4, 7)]
    cubics = []
    for i in range(600):
        kind = i % 6
        if kind == 0:  # three roots from a small pool, so some repeat
            cubics.append(_cubic_from(rng.choice(pool[::7]) for _ in range(3)))
        elif kind == 1:  # a double root, or every other time a triple root
            r, s = rng.choice(pool), rng.choice(pool)
            cubics.append(_cubic_from((r, r, s) if i % 12 == 1 else (r, r, r)))
        elif kind == 2:  # random coefficients, mostly without a rational root
            cubics.append([Fraction(1), *(Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(3))])
        elif kind == 3:  # (t + k)^3 + e: the derivative's discriminant is zero
            k, e = rng.choice(pool), rng.choice(pool + [Fraction(0)] * 20)
            cubics.append([Fraction(1), 3 * k, 3 * k * k, k**3 + e])
        else:  # critical points u and v; kind 4 puts a double root at u, kind 5 shifts by a random e
            u, v = rng.choice(pool), rng.choice(pool)
            poly = [Fraction(1), -Fraction(3, 2) * (u + v), 3 * u * v]
            at_u = ((u + poly[1]) * u + poly[2]) * u
            cubics.append([*poly, -at_u if kind == 4 else rng.choice(pool)])
    # every cubic whose three roots are drawn from a few close values, integer or not
    for values in (range(-3, 4), [Fraction(n, 6) for n in (-4, -3, 0, 2, 3, 4)]):
        cubics += [_cubic_from(roots) for roots in itertools.combinations_with_replacement(values, 3)]
    return cubics


def _scaled_discriminant(coeffs):
    """b^2 - 3c of the monic int cubic in s = L t, for L the common denominator."""
    scale = lcm(*(c.denominator for c in coeffs))
    return int(scale * scale * (coeffs[1] ** 2 - 3 * coeffs[2]))


def test_rational_roots_match_a_divisor_scan():
    q = Rationals()
    multiplicities, discriminants = set(), []
    for coeffs in _seeded_rational_cubics():
        found = roots_with_multiplicity(q, [q.element(c) for c in coeffs])
        assert [(root.value, mult) for root, mult in found] == _rational_roots_by_divisor_scan(coeffs), coeffs
        multiplicities.update(mult for _, mult in found)
        discriminants.append(_scaled_discriminant(coeffs))
    assert multiplicities == {1, 2, 3}
    assert discriminants.count(0) > 50
    assert sum(d > 0 and isqrt(d) ** 2 == d for d in discriminants) > 100
    assert sum(d > 0 and isqrt(d) ** 2 != d for d in discriminants) > 50


@pytest.mark.parametrize(
    "t1, t2",
    [("997/301", "-503/117"), ("9973/3001", "-5003/1171"), ("99991/30011", "-50021/11717")],
)
def test_high_height_chords_split_within_a_second(t1, t2):
    curve = rational_curve(1)
    P, Q = q_point(curve, Fraction(t1)), q_point(curve, Fraction(t2))
    line = line_through(P, Q)
    expected = {P, Q, third_intersection(curve, P, Q)}
    start = time.perf_counter()
    intersections = line_curve_intersections(curve, line)
    assert time.perf_counter() - start < 1
    assert len(intersections) == 3 and {point for point, _ in intersections} == expected
    start = time.perf_counter()
    points = geometry._curve_points_on_line(curve, line)
    assert time.perf_counter() - start < 1
    assert len(points) == 3 and set(points) == expected


@pytest.mark.parametrize("p", [5, 11])
@pytest.mark.parametrize("a", [1, 2])
def test_all_split_lines_satisfy_the_collinearity_identities(p, a):
    curve = prime_curve(p, a)
    minus_one = -curve.field.one
    infinity = curve.infinity
    seen_split = 0
    for line in all_lines(curve.field):
        if line.through_origin:
            continue
        intersections = line_curve_intersections(curve, line)
        if sum(mult for _, mult in intersections) != 3:
            continue
        seen_split += 1
        triple = []
        for point, mult in intersections:
            triple.extend([point] * mult)
        p1, p2, p3 = triple
        assert (p1.x * p2.x * p3.x + p1.y * p2.y * p3.y).is_zero()
        t_product = pbar_inv(curve, p1) * pbar_inv(curve, p2) * pbar_inv(curve, p3)
        assert t_product == minus_one
        assert proj_mul(curve, proj_mul(curve, p1, p2), p3) == infinity
        assert star_mul(curve, star_mul(curve, p1, p2), p3) == infinity
        assert collinear3(curve, p1, p2, p3)
    assert seen_split > 0


@pytest.mark.parametrize("p", [5, 11])
def test_every_minus_one_product_triple_is_collinear(p):
    curve = prime_curve(p)
    field = curve.field
    minus_one = -field.one
    count = 0
    for r1 in range(1, p):
        for r2 in range(1, p):
            t1, t2 = field.element(r1), field.element(r2)
            t3 = minus_one / (t1 * t2)
            p1, p2, p3 = (pbar(curve, t) for t in (t1, t2, t3))
            assert collinear3(curve, p1, p2, p3)
            assert chord_or_tangent(curve, p1, p2).contains(p3)
            count += 1
    assert count == (p - 1) ** 2


def test_perpendicular_chord_examples():
    curve = rational_curve(1)
    p2 = q_point(curve, 2)
    partner = q_point(curve, Fraction(-1, 2))
    assert perpendicular_chord_check(curve, p2, partner)
    assert collinear3(curve, curve.vertex(), p2, partner)
    assert not perpendicular_chord_check(curve, p2, q_point(curve, 3))


def test_perpendicular_chord_guards():
    curve = rational_curve(1)
    p2 = q_point(curve, 2)
    with pytest.raises(OriginNotAllowed):
        perpendicular_chord_check(curve, curve.origin, p2)
    with pytest.raises(VertexNotAllowed):
        perpendicular_chord_check(curve, curve.vertex(), p2)
    with pytest.raises(PointAtInfinity):
        perpendicular_chord_check(curve, p2, curve.infinity)
    f5 = prime_curve(5)
    points = nonzero_points(f5)
    with pytest.raises(UnorderedField):
        perpendicular_chord_check(f5, points[0], points[1])


def test_vertex_chord_gives_perpendicular_pair():
    curve = rational_curve(1)
    rng = random.Random(22)
    vertex = curve.vertex()
    for _ in range(300):
        t = random_nonzero_fraction(rng)
        if t in (1, -1):
            continue
        point = q_point(curve, t)
        partner = third_intersection(curve, vertex, point)
        assert (point.x * partner.x + point.y * partner.y).is_zero()
        assert perpendicular_chord_check(curve, point, partner)
