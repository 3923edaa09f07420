"""Curve membership is checked at the boundary: a point from raw coordinates, or
one built on another curve, is evaluated against the cubic wherever a curve
point is required."""

import random
from fractions import Fraction

import pytest

from descartes_folium import (
    BadLiteral,
    Folium,
    FoliumError,
    LawKind,
    MixedFields,
    NotOnCurve,
    PrimeField,
    ProjectiveLine,
    ProjectivePoint,
    Rationals,
    pbar,
)
from descartes_folium.branches import classify_branch
from descartes_folium.cli import point_json, point_text
from descartes_folium.geometry import chord_or_tangent, collinear3, third_intersection
from descartes_folium.laws import apply_law, law_inverse, perp
from descartes_folium.parametrization import p_affine, p_affine_prime, pbarbar, sigma
from helpers import rational_curve

CURVE = rational_curve(1)
# (1, 1): 1 + 1 - 3 = -1, so the point is off x^3 + y^3 - 3xy = 0
OFF = ProjectivePoint.of(Rationals(), 1, 1, 1)
ON = pbar(CURVE, 2)  # (2/3, 4/3), on the curve and affine


def _curve_point_calls(curve, bad, good):
    """Every public call that takes curve points, with `bad` in one operand slot."""
    calls = []
    for kind in LawKind:
        name = kind.value
        calls.append((f"apply_law.{name}.left", lambda k=kind: apply_law(curve, k, bad, good)))
        calls.append((f"apply_law.{name}.right", lambda k=kind: apply_law(curve, k, good, bad)))
        calls.append((f"law_inverse.{name}", lambda k=kind: law_inverse(curve, k, bad)))
    calls += [
        ("perp", lambda: perp(curve, bad)),
        ("third_intersection", lambda: third_intersection(curve, bad, good)),
        ("chord_or_tangent.chord", lambda: chord_or_tangent(curve, good, bad)),
        ("chord_or_tangent.tangent", lambda: chord_or_tangent(curve, bad, bad)),
        ("collinear3", lambda: collinear3(curve, good, good, bad)),
        ("classify_branch", lambda: classify_branch(curve, bad)),
    ]
    return calls


@pytest.mark.parametrize("name, call", _curve_point_calls(CURVE, OFF, ON))
def test_raw_off_curve_point_is_rejected(name, call):
    with pytest.raises(NotOnCurve):
        call()


# pbar(2) = (2/3, 4/3) lies on the a = 1 curve; with a = 2 the cubic there is -8/3.
OTHER = rational_curve(2)


@pytest.mark.parametrize("name, call", _curve_point_calls(OTHER, ON, pbar(OTHER, 2)))
def test_point_built_on_another_curve_is_rejected(name, call):
    with pytest.raises(NotOnCurve):
        call()


def test_built_and_raw_points_are_indistinguishable():
    raw = ProjectivePoint.of(Rationals(), 6, 12, 9)
    for built in (pbar(CURVE, 2), apply_law(CURVE, LawKind.PROJ_MUL, ON, CURVE.vertex())):
        assert built == raw and raw == built
        assert hash(built) == hash(raw)
        assert {built: 1}[raw] == 1
        assert point_text(built) == point_text(raw) == "(2/3 : 4/3 : 1)"
        assert point_json(built) == point_json(raw)
    assert CURVE.origin == ProjectivePoint.of(Rationals(), 0, 0, 1)
    assert hash(CURVE.infinity) == hash(ProjectivePoint.of(Rationals(), 1, -1, 0))


def test_chart_points_carry_their_curve_and_raw_points_do_not():
    built = [pbar(CURVE, 2), pbarbar(CURVE, 2), p_affine(CURVE, 2), p_affine_prime(CURVE, 2)]
    built += [sigma(ON), CURVE.origin, CURVE.infinity, CURVE.vertex()]
    assert all(point.on is CURVE for point in built)
    raw = [OFF, CURVE.point(0, 0), ProjectivePoint.of(Rationals(), 6, 12, 9), sigma(OFF)]
    assert all(point.on is None for point in raw)


def test_no_public_constructor_takes_the_on_curve_mark():
    # (1 : 2 : 1) is off the curve; no caller can vouch for it, so every law evaluates the cubic on it
    q = Rationals()
    one, two = q.element(1), q.element(2)
    for build in (ProjectivePoint, lambda x, y, z: ProjectivePoint.of(q, x, y, z), CURVE.point):
        with pytest.raises(TypeError):
            build(one, two, one, CURVE)
        with pytest.raises(TypeError):
            build(one, two, one, on=CURVE)
        point = build(one, two, one)
        assert point.on is None and not CURVE.contains(point)
        for kind in LawKind:
            with pytest.raises(NotOnCurve):
                apply_law(CURVE, kind, point, ON)


# -- the boundary kernels against element arithmetic -------------------------
#
# A raw point is admitted by two kernels on stored values: the canonical
# scaling (fields._scaled, through _canonical) and the on-curve check
# (fields._cubic_vanishes, through require_on_curve).  The tests below hold
# them to the element-arithmetic answers, on seeded triples over q at anchor
# heights and at 2^31 heights and over fp:2, 5, 7 and 65537.

BOUNDARY_FIELDS = [Rationals(), PrimeField(2), PrimeField(5), PrimeField(7), PrimeField(65537)]
BOUNDARY_IDS = ["q", "fp:2", "fp:5", "fp:7", "fp:65537"]


def _curve_parameters(field):
    if field.characteristic:
        return [a for a in (1, 2, 6) if a % field.characteristic]
    return [Fraction(1), Fraction(2), Fraction(-5, 7)]


def _draw(field, rng, height):
    """A nonzero field value: a residue, or a rational of numerator and denominator up to `height`."""
    p = field.characteristic
    while True:
        if p:
            value = rng.randrange(1, p) * rng.choice((1, -1, p + 1))
        else:
            value = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if value % p if p else value:
            return value


def _raw_triples(field, a, seed):
    """Scaled on-curve triples, their perturbations off the curve and the special points, scaled."""
    rng = random.Random(seed)
    p = field.characteristic
    heights = [12, 2**31] if not p else [p]
    triples = []
    for height in heights:
        for _ in range(12):
            t, scale = _draw(field, rng, height), _draw(field, rng, height)
            on = (3 * a * t * scale, 3 * a * t * t * scale, (1 + t**3) * scale)
            triples += [on, (on[0] + scale, on[1], on[2]), (on[0], on[1] - 1, on[2]), (on[0], on[1], on[2] + on[0])]
        scale = _draw(field, rng, height)
        triples += [(0, 0, scale), (scale, -scale, 0), (0, scale, 0), (scale, scale, scale)]
        triples += [(scale, e.value * scale, 0) for e in field.epsilon_roots() or ()]
    return [triple for triple in triples if any(value % p if p else value for value in triple)]


def _outcome(call):
    try:
        call()
    except FoliumError as error:
        return type(error), str(error)
    return None


def _element_outcome(curve, point):
    """require_on_curve's answer as element arithmetic gives it: evaluate's error, or contains."""
    try:
        on = curve.contains(point)
    except FoliumError as error:
        return type(error), str(error)
    return None if on else (NotOnCurve, f"{point} is not on {curve}")


@pytest.mark.parametrize("field", BOUNDARY_FIELDS, ids=BOUNDARY_IDS)
def test_require_on_curve_accepts_exactly_what_contains_accepts(field):
    accepted = rejected = 0
    for seed, a in enumerate(_curve_parameters(field)):
        curve = Folium(field, a)
        for triple in _raw_triples(field, a, seed):
            point = ProjectivePoint.of(field, *triple)
            expected = _element_outcome(curve, point)
            assert _outcome(lambda: curve.require_on_curve(point)) == expected, (a, triple)
            accepted += expected is None
            rejected += expected is not None
    assert accepted >= 4 and rejected >= 4


def test_a_point_of_another_field_is_refused_with_evaluates_text():
    pairs = [(Folium(Rationals(), 1), PrimeField(5)), (Folium(PrimeField(5), 1), PrimeField(7))]
    pairs.append((Folium(PrimeField(7), 1), Rationals()))
    for curve, other in pairs:
        point = ProjectivePoint.of(other, 0, 0, 1)
        expected = (MixedFields, f"{point} does not live over {curve.field}")
        assert _outcome(lambda: curve.evaluate(point)) == expected
        assert _outcome(lambda: curve.require_on_curve(point)) == expected


def _reference_canonical(field, triple):
    """The triple scaled as element arithmetic does it: inverse() of the pivot, then three products."""
    x, y, z = (field.element(value) for value in triple)
    for pivot in (z, x, y):
        if not pivot.is_zero():
            scale = pivot.inverse()
            return (x * scale).value, (y * scale).value, (z * scale).value
    raise AssertionError("a zero triple")


@pytest.mark.parametrize("field", BOUNDARY_FIELDS, ids=BOUNDARY_IDS)
def test_points_and_lines_scale_as_element_arithmetic_does(field):
    stored = int if field.characteristic else Fraction
    triples = [triple for seed, a in enumerate(_curve_parameters(field)) for triple in _raw_triples(field, a, seed)]
    if not field.characteristic:
        assert any(triple[2] < 0 for triple in triples) and any(triple[2] == 0 > triple[0] for triple in triples)
    for triple in triples:
        expected = _reference_canonical(field, triple)
        point, line = ProjectivePoint.of(field, *triple), ProjectiveLine.of(field, *triple)
        for values in ((point.x.value, point.y.value, point.z.value), (line.m.value, line.n.value, line.p.value)):
            assert values == expected, triple
            assert all(type(value) is stored for value in values)


class _FractionSubclass(Fraction):
    pass


def test_an_exact_fraction_is_stored_as_it_is():
    q = Rationals()
    for value in (Fraction(-7, 3), Fraction(2**40, 3**20), Fraction(0)):
        assert q.element(value).value is value
        assert ProjectivePoint.of(q, value, 1, 1).x.value is value
    for value in (5, True, _FractionSubclass(4, 6)):
        stored = q.element(value).value
        assert type(stored) is Fraction and stored == value


# -- .of reads each coordinate's stored value once ------------------------------
#
# ProjectivePoint.of and ProjectiveLine.of read the stored values of plain values
# and elements alike and scale them once; the references below build the
# elements first and go through the public constructors, which scale elements.

OF_FIELDS = [Rationals(), PrimeField(7), PrimeField(65537)]
OF_IDS = ["q", "fp:7", "fp:65537"]


@pytest.mark.parametrize("field", OF_FIELDS, ids=OF_IDS)
def test_of_from_plain_values_matches_the_element_built_point_and_line(field):
    triples = [triple for seed, a in enumerate(_curve_parameters(field)) for triple in _raw_triples(field, a, seed)]
    for triple in triples:
        elements = [field.element(value) for value in triple]
        point, line = ProjectivePoint.of(field, *triple), ProjectiveLine.of(field, *triple)
        assert point == ProjectivePoint(*elements) and point.on is None, triple
        assert line == ProjectiveLine(*elements), triple
        assert ProjectivePoint.of(field, *elements) == point and ProjectiveLine.of(field, *elements) == line
        assert Folium(field, 1).point(*triple) == point and Folium(field, 1).line(*triple) == line


@pytest.mark.parametrize("field", OF_FIELDS, ids=OF_IDS)
def test_of_keeps_the_elements_given_at_a_unit_pivot(field):
    rng = random.Random(11)
    for _ in range(20):
        u, v = (field.element(_draw(field, rng, 2**31)) for _ in range(2))
        for given in ((u, v, field.one), (field.one, u, field.zero), (field.zero, field.one, field.zero)):
            for build, read in ((ProjectivePoint.of, lambda P: (P.x, P.y, P.z)), (ProjectiveLine.of, lambda L: (L.m, L.n, L.p))):
                assert all(kept is element for kept, element in zip(read(build(field, *given)), given)), given
        point = ProjectivePoint.of(field, u, v.value, 1)
        assert point.x is u and point.y == v and point.z == field.one


def test_of_keeps_its_error_types_and_texts():
    q, f7 = Rationals(), PrimeField(7)
    cases = [
        (lambda: ProjectivePoint.of(q, 1, 1.5, "x"), TypeError, "cannot build a rational from 1.5"),
        (lambda: ProjectiveLine.of(f7, 1, 2, Fraction(1, 2)), TypeError, "cannot build a residue mod 7 from Fraction(1, 2)"),
        (lambda: ProjectivePoint.of(q, f7.one, 1, 1), MixedFields, "1 does not belong to q"),
        (lambda: ProjectiveLine.of(f7, 2, q.element(Fraction(1, 3)), 1), MixedFields, "1/3 does not belong to fp:7"),
        (lambda: ProjectivePoint.of(q, 0, Fraction(0), q.zero), BadLiteral, "(0 : 0 : 0) is not a projective point"),
        (lambda: ProjectivePoint.of(f7, 7, -14, 0), BadLiteral, "(0 : 0 : 0) is not a projective point"),
        (lambda: ProjectiveLine.of(f7, 0, f7.zero, 21), BadLiteral, "(0 : 0 : 0) is not a line"),
    ]
    for call, error, text in cases:
        with pytest.raises(error) as refusal:
            call()
        assert type(refusal.value) is error and str(refusal.value) == text
