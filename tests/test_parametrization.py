"""Round trips, bijectivity, and consistency of the four parametrizations."""

import random
from fractions import Fraction
from math import gcd

import pytest

from descartes_folium import (
    FieldLacksUniqueCubeRoot,
    NotOnCurve,
    OriginNotInGroup,
    ParameterAtInfinity,
    ParamMap,
    PointAtInfinity,
    ProjectivePoint,
    Rationals,
    alpha,
    alpha_inv,
    p_affine,
    p_affine_prime,
    pbar,
    pbar_inv,
    pbarbar,
    pbarbar_inv,
    sigma,
)
from descartes_folium.parametrization import _NODE_EXCLUDED, _pair_param
from helpers import prime_curve, random_fraction, rational_curve


def test_pbar_examples():
    curve = rational_curve(1)
    q = curve.field
    assert pbar(curve, q.element(1)) == curve.point(Fraction(3, 2), Fraction(3, 2))
    assert pbar(curve, q.element(-1)) == curve.point(1, -1, 0)
    assert pbar(curve, q.element(0)) == curve.origin
    observed = pbar(curve, q.element(2))
    assert observed == curve.point(Fraction(2, 3), Fraction(4, 3))
    assert curve.contains(observed)


def test_pbar_inv_examples():
    curve = rational_curve(1)
    q = curve.field
    assert pbar_inv(curve, curve.point(Fraction(2, 3), Fraction(4, 3))) == q.element(2)
    assert pbar_inv(curve, curve.origin) == q.zero
    assert pbar_inv(curve, curve.infinity) == q.element(-1)


def test_pbar_inv_rejects_off_curve():
    curve = rational_curve(1)
    with pytest.raises(NotOnCurve):
        pbar_inv(curve, curve.point(1, 1))


def test_pbarbar_examples():
    curve = rational_curve(1)
    q = curve.field
    assert pbarbar(curve, q.element(1)) == curve.vertex()
    assert pbarbar(curve, q.element(2)) == curve.point(Fraction(4, 3), Fraction(2, 3))
    assert pbarbar(curve, q.element(0)) == curve.origin
    assert pbarbar_inv(curve, curve.point(Fraction(4, 3), Fraction(2, 3))) == q.element(2)
    assert pbarbar_inv(curve, curve.origin) == q.zero


def test_affine_map_examples():
    curve = rational_curve(1)
    q = curve.field
    assert p_affine(curve, q.element(0)) == curve.origin
    assert p_affine(curve, q.element(1)) == curve.point(Fraction(3, 2), Fraction(3, 2))
    with pytest.raises(ParameterAtInfinity):
        p_affine(curve, q.element(-1))
    with pytest.raises(ParameterAtInfinity):
        p_affine_prime(curve, q.element(-1))


def test_alpha_examples():
    q = Rationals()
    assert alpha(q.element(1)) == q.zero
    assert alpha(q.element(2)) == q.one
    assert alpha_inv(q.element(-1)) == q.zero


def test_sigma_examples():
    curve = rational_curve(1)
    point = curve.point(Fraction(2, 3), Fraction(4, 3))
    assert sigma(point) == curve.point(Fraction(4, 3), Fraction(2, 3))
    assert sigma(curve.infinity) == curve.infinity
    assert sigma(curve.origin) == curve.origin


@pytest.mark.parametrize("p", [2, 5, 7, 11, 13, 17, 19, 23, 29, 31])
@pytest.mark.parametrize("a", [1, 2])
def test_round_trips_and_bijection_exhaustive(p, a):
    if a % p == 0:
        pytest.skip("a must be nonzero in the field")
    curve = prime_curve(p, a)
    field = curve.field
    image = set()
    for r in range(p):
        t = field.element(r)
        point = pbar(curve, t)
        assert curve.contains(point)
        assert pbar_inv(curve, point) == t
        assert pbarbar_inv(curve, pbarbar(curve, t)) == t
        image.add(point)
    assert image == set(curve.enumerate_points())
    for point in curve.enumerate_points():
        assert pbar(curve, pbar_inv(curve, point)) == point


def test_round_trips_random_rationals():
    rng = random.Random(2)
    for a in (1, 2, Fraction(-3)):
        curve = rational_curve(a)
        field = curve.field
        for _ in range(10_000 // 3 + 1):
            t = field.element(random_fraction(rng))
            point = pbar(curve, t)
            assert curve.contains(point)
            assert pbar_inv(curve, point) == t
            assert pbar(curve, pbar_inv(curve, point)) == point


def test_sigma_involution_and_parameter_inversion():
    rng = random.Random(3)
    curve = rational_curve(1)
    field = curve.field
    for _ in range(500):
        t = field.element(random_fraction(rng))
        point = pbar(curve, t)
        assert sigma(sigma(point)) == point
        assert sigma(point) == pbarbar(curve, t)
        if not t.is_zero():
            assert sigma(point) == pbar(curve, t.inverse())


def test_affine_matches_projective_on_common_domain():
    rng = random.Random(4)
    curve = rational_curve(2)
    field = curve.field
    for _ in range(500):
        t = field.element(random_fraction(rng))
        if (t * t * t + 1).is_zero():
            continue
        assert p_affine(curve, t) == pbar(curve, t)
        assert p_affine(curve, t).is_affine
        assert p_affine_prime(curve, t) == pbarbar(curve, t)
    f5 = prime_curve(5)
    for r in range(5):
        t = f5.field.element(r)
        if (t * t * t + 1).is_zero():
            continue
        assert p_affine(f5, t) == pbar(f5, t)


def test_param_map_selector():
    curve = rational_curve(1)
    two = curve.field.element(2)
    assert ParamMap.PBAR.evaluate(curve, two) == pbar(curve, two)
    assert ParamMap.PBARBAR.evaluate(curve, two) == pbarbar(curve, two)
    assert ParamMap.P_AFFINE.evaluate(curve, two) == p_affine(curve, two)
    assert ParamMap.P_AFFINE_PRIME.evaluate(curve, two) == p_affine_prime(curve, two)
    assert ParamMap("pbar") is ParamMap.PBAR


def test_alpha_is_a_bijection_between_punctured_lines():
    rng = random.Random(5)
    q = Rationals()
    for _ in range(200):
        tau = q.element(random_fraction(rng))
        assert alpha_inv(alpha(tau)) == tau
        assert alpha(alpha_inv(tau)) == tau
        if not tau.is_zero():
            assert alpha(tau) != q.element(-1)


def _chart_parameters():
    """Every residue of fp:2, 5, 7, 13 and 31 (7, 13 and 31 have epsilon roots, so t^3 = -1
    has three solutions there), and rationals from 0 and +-1 up to height 2^31, negative
    ones included, on the curves a = 1, 2, 2/3 and -3 over q."""
    for p in (2, 5, 7, 13, 31):
        for a in (1, 2):
            if a % p:
                curve = prime_curve(p, a)
                yield from ((curve, curve.field.element(r)) for r in range(p))
    height = 2**31
    q_params = (
        0, 1, -1, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(-7, 3),
        Fraction(height - 1, height + 11), Fraction(-height, height - 1), Fraction(-5, height), -height,
    )
    for a in (1, 2, Fraction(2, 3), -3):
        curve = rational_curve(a)
        yield from ((curve, curve.field.element(t)) for t in q_params)


def _same_marked_point(point, expected, curve):
    assert type(point) is ProjectivePoint
    assert (point.x, point.y, point.z) == (expected.x, expected.y, expected.z)
    assert point.on is curve


def _charts_match_the_canonicalizer(curve, t) -> bool:
    """Each chart's point at t against (3at : 3at^2 : 1 + t^3) scaled by the canonicalizing
    constructor, and back; True when 1 + t^3 = 0."""
    x, y, w = curve.three_a * t, curve.three_a * t * t, t * t * t + 1
    _same_marked_point(pbar(curve, t), ProjectivePoint(x, y, w), curve)
    _same_marked_point(pbarbar(curve, t), ProjectivePoint(y, x, w), curve)
    assert pbar_inv(curve, pbar(curve, t)) == t and pbarbar_inv(curve, pbarbar(curve, t)) == t
    if w.is_zero():
        for affine_map in (p_affine, p_affine_prime):
            with pytest.raises(ParameterAtInfinity):
                affine_map(curve, t)
        return True
    one = curve.field.one
    _same_marked_point(p_affine(curve, t), ProjectivePoint(x / w, y / w, one), curve)
    _same_marked_point(p_affine_prime(curve, t), ProjectivePoint(y / w, x / w, one), curve)
    return False


def test_charts_match_the_general_canonicalizer():
    # the z = 1 points skip the canonicalizer, so each must equal the one it would have built
    reached_w_zero = sum(_charts_match_the_canonicalizer(curve, t) for curve, t in _chart_parameters())
    # t = -1 on each of the thirteen curves, and both epsilon roots on the six over fp:7, 13 and 31
    assert reached_w_zero == 13 + 6 * 2
    # and 200 seeded rationals of either sign over q, on a curve with a = -3/2
    rng, curve = random.Random(17), rational_curve(Fraction(-3, 2))
    for _ in range(200):
        t = curve.field.element(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)))
        _charts_match_the_canonicalizer(curve, t)


def _inverse_chart_points():
    """Every point of the curve over fp:2, 5, 7 and 13, and pbar of a Q grid with 0, -1 and the node."""
    for p in (2, 5, 7, 13):
        for a in (1, 2):
            if a % p:
                curve = prime_curve(p, a)
                yield from ((curve, point) for point in curve.enumerate_points())
    q_params = (0, -1, 1, 2, Fraction(1, 2), Fraction(-7, 3), Fraction(-1, 2), Fraction(2**31 - 1, 2**31 + 11))
    for a in (1, 2):
        curve = rational_curve(a)
        yield curve, curve.origin
        yield from ((curve, pbar(curve, curve.field.element(t))) for t in q_params)


def test_inverse_charts_are_the_coordinate_quotients():
    for curve, point in _inverse_chart_points():
        zero = curve.field.zero
        assert pbar_inv(curve, point) == (zero if point.x.is_zero() else point.y / point.x)
        assert pbarbar_inv(curve, point) == (zero if point.y.is_zero() else point.x / point.y)


def _assert_canonical_values(point):
    p = point.field.characteristic
    for coordinate in (point.x, point.y, point.z):
        if p:
            assert type(coordinate.value) is int and 0 <= coordinate.value < p, (point, coordinate.value)
        else:
            value = coordinate.value  # a Fraction in lowest terms, never a float or an int
            assert type(value) is Fraction and gcd(value.numerator, value.denominator) == 1, (point, value)


def test_chart_coordinates_hold_canonical_values():
    # equality compares .value, so an unreduced residue would compare unequal without an error
    rng = random.Random(6)
    big = prime_curve(65537, 2)
    sampled = [(big, big.field.element(r)) for r in (0, 1, 65536, *(rng.randrange(65537) for _ in range(200)))]
    for curve, t in [*_chart_parameters(), *sampled]:
        _assert_canonical_values(pbar(curve, t))
        _assert_canonical_values(pbarbar(curve, t))
        if not (t * t * t + 1).is_zero():
            _assert_canonical_values(p_affine(curve, t))
            _assert_canonical_values(p_affine_prime(curve, t))


@pytest.mark.parametrize("curve", [rational_curve(1), prime_curve(5, 1), prime_curve(7, 1)], ids=["q", "fp:5", "fp:7"])
def test_the_pair_reader_refuses_what_the_domain_excludes(curve):
    lacking = curve.field.characteristic == 7  # 7 = 1 (mod 3): the one field here with epsilon roots
    # the node, as the curve built it and as a caller builds it: "all" reads (0 : 1), "nonzero" refuses it
    for node in (curve.origin, curve.point(0, 0)):
        for swap in (False, True):
            assert _pair_param(curve, node, swap, "all") == (0, 1)
            with pytest.raises(OriginNotInGroup) as refusal:
                _pair_param(curve, node, swap, "nonzero")
            assert str(refusal.value) == _NODE_EXCLUDED == "the node (0 : 0 : 1) is excluded here"
    # off the node every domain reads the same pair
    point = pbar(curve, curve.field.element(2))
    domains = ("all", "nonzero") if lacking else ("all", "nonzero", "affine")
    for swap in (False, True):
        assert {_pair_param(curve, point, swap, domain) for domain in domains} == {_pair_param(curve, point, swap)}
    # "affine" refuses a field with epsilon roots, then a point at infinity, before it asks
    # whether the point is on the curve
    off_curve = curve.point(1, 1, 0)
    assert not curve.contains(off_curve)
    with pytest.raises(NotOnCurve):
        _pair_param(curve, off_curve, False, "all")
    error, message = (
        (FieldLacksUniqueCubeRoot, "^fp:7 has epsilon roots, so the affine parametrization is not a bijection onto")
        if lacking
        else (PointAtInfinity, "is not an affine point")
    )
    for at_infinity in (off_curve, curve.infinity):
        with pytest.raises(error, match=message):
            _pair_param(curve, at_infinity, False, "affine")


def test_the_affine_charts_build_over_a_field_with_epsilon_roots_and_refuse_its_parameters_at_infinity():
    # the charts never ask for the field: over fp:7 they refuse only t^3 = -1, which 3, 5 and 6 satisfy
    curve = prime_curve(7, 1)
    assert p_affine(curve, 2) == curve.point(3, 6, 1)
    assert p_affine_prime(curve, 2) == curve.point(6, 3, 1)
    for t in (3, 5, 6):
        for affine_map in (p_affine, p_affine_prime):
            with pytest.raises(ParameterAtInfinity) as refusal:
                affine_map(curve, t)
            assert str(refusal.value) == f"t = {t} satisfies t^3 = -1; no affine image"
