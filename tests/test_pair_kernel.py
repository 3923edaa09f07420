"""The laws on slope pairs against element arithmetic on the drawn parameters.

Every law composes the int slope pairs (n : d) of its operands and divides
once, in the pair kernel `fields._pair_coordinates`.  The reference here
builds each point as (3at : 3at^2 : 1 + t^3), or its swap for the pbarbar
laws, with element arithmetic and the canonicalizing constructor, and
applies the law's field operation to the parameters t it drew: over q at
2^31 heights, over fp:65537, and over every residue of fp:7 and fp:13, where
the epsilon roots give two more points at infinity.  The node, V and I are
drawn everywhere.  Refusals are part of the reference: the node under a
multiplicative law and under perp and third_intersection, a point at
infinity or a field with epsilon roots under an exotic law, the node's field
inverse, and p_affine where 1 + t^3 = 0.
"""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from descartes_folium import (
    DivisionByZeroPoint,
    FieldElement,
    FieldLacksUniqueCubeRoot,
    LawKind,
    OriginNotInGroup,
    ParameterAtInfinity,
    PointAtInfinity,
    ProjectivePoint,
    apply_law,
    fields,
    law_inverse,
    pbar,
    perp,
    third_intersection,
)
from descartes_folium.parametrization import p_affine, p_affine_prime
from helpers import prime_curve, rational_curve


def _point(curve, t, swap=False):
    """(3at : 3at^2 : 1 + t^3), or (3at^2 : 3at : 1 + t^3) when `swap`, by element arithmetic."""
    x, y, w = curve.three_a * t, curve.three_a * t * t, t * t * t + 1
    return ProjectivePoint(y, x, w) if swap else ProjectivePoint(x, y, w)


def _reciprocal(t):
    """The pbarbar parameter x/y of the point with pbar parameter t; 0 at the node."""
    return t if t.is_zero() else t.inverse()


# Each law's parameter of pbar(t), field operation, chart of the result and inverse.
REFERENCE = {
    LawKind.PROJ_MUL: (lambda t: t, lambda u, v: u * v, lambda c, w: _point(c, w), lambda u: u.inverse()),
    LawKind.PROJ_MUL2: (_reciprocal, lambda u, v: u * v, lambda c, w: _point(c, w, True), lambda u: u.inverse()),
    LawKind.STAR_MUL: (lambda t: t, lambda u, v: -(u * v), lambda c, w: _point(c, w), lambda u: u.inverse()),
    LawKind.ADD_SOUTH: (lambda t: t, lambda u, v: u + v, lambda c, w: _point(c, w), lambda u: -u),
    LawKind.ADD_WEST: (_reciprocal, lambda u, v: u + v, lambda c, w: _point(c, w, True), lambda u: -u),
    LawKind.SOUTH_MUL: (lambda t: t + 1, lambda u, v: u * v, lambda c, w: _point(c, w - 1), lambda u: u.inverse()),
    LawKind.WEST_MUL: (
        lambda t: _reciprocal(t) + 1,
        lambda u, v: u * v,
        lambda c, w: _point(c, w - 1, True),
        lambda u: u.inverse(),
    ),
    LawKind.FIELD_MUL: (lambda t: t, lambda u, v: u * v, lambda c, w: _point(c, w), lambda u: u.inverse()),
}
NONZERO = (LawKind.PROJ_MUL, LawKind.PROJ_MUL2, LawKind.STAR_MUL)
AFFINE = (LawKind.SOUTH_MUL, LawKind.WEST_MUL)


def _refusal(curve, kind, ts):
    """The error the law must raise on the points pbar(t), t in ts, or None."""
    if kind in NONZERO and any(t.is_zero() for t in ts):
        return OriginNotInGroup
    if kind in AFFINE:
        if curve.field.epsilon_roots() is not None:
            return FieldLacksUniqueCubeRoot
        if any((t * t * t + 1).is_zero() for t in ts):
            return PointAtInfinity
    return None


def _outcome(call):
    """The call's point, or the type of the FoliumError it raised."""
    try:
        return call()
    except (OriginNotInGroup, FieldLacksUniqueCubeRoot, PointAtInfinity, DivisionByZeroPoint) as refusal:
        return type(refusal)


def _pools():
    """(curve, parameters): q at 2^31 heights and fp:65537 drawn, fp:7 and fp:13 whole."""
    rng, height = random.Random(21), 2**31
    for a in (1, Fraction(-5, 7)):
        curve = rational_curve(a)
        drawn = [Fraction(rng.randint(-height, height), rng.randint(1, height)) for _ in range(6)]
        yield curve, [curve.field.element(t) for t in (0, 1, -1, *drawn)]
    curve = prime_curve(65537, 2)
    yield curve, [curve.field.element(t) for t in (0, 1, -1, *(rng.randrange(65537) for _ in range(6)))]
    for p in (7, 13):
        curve = prime_curve(p, 2)
        yield curve, [curve.field.element(t) for t in range(p)]


POOLS = list(_pools())
POOL_IDS = ["q:a=1", "q:a=-5/7", "fp:65537", "fp:7", "fp:13"]


@pytest.mark.parametrize("curve, ts", POOLS, ids=POOL_IDS)
def test_the_laws_on_slope_pairs_match_element_arithmetic(curve, ts):
    points = {t: _point(curve, t) for t in ts}
    for kind, (param, op, chart, inverse) in REFERENCE.items():
        for t1, t2 in itertools.product(ts, repeat=2):
            expected = _refusal(curve, kind, (t1, t2)) or chart(curve, op(param(t1), param(t2)))
            assert _outcome(lambda: apply_law(curve, kind, points[t1], points[t2])) == expected, (kind, t1, t2)
        for t in ts:
            expected = _refusal(curve, kind, (t,))
            if expected is None:
                u = param(t)
                expected = DivisionByZeroPoint if u.is_zero() and kind is LawKind.FIELD_MUL else chart(curve, inverse(u))
            assert _outcome(lambda: law_inverse(curve, kind, points[t])) == expected, (kind, t)


@pytest.mark.parametrize("curve, ts", POOLS, ids=POOL_IDS)
def test_perp_and_third_intersection_on_slope_pairs_match_element_arithmetic(curve, ts):
    points = {t: _point(curve, t) for t in ts}
    for t in ts:
        expected = OriginNotInGroup if t.is_zero() else _point(curve, -t.inverse())
        assert _outcome(lambda: perp(curve, points[t])) == expected, t
    for t1, t2 in itertools.product(ts, repeat=2):
        if t1.is_zero() or t2.is_zero():
            expected = OriginNotInGroup
        else:
            expected = _point(curve, -(t1 * t2).inverse())
        assert _outcome(lambda: third_intersection(curve, points[t1], points[t2])) == expected, (t1, t2)


@pytest.mark.parametrize("curve, ts", POOLS, ids=POOL_IDS)
def test_the_affine_charts_refuse_exactly_the_parameters_at_infinity(curve, ts):
    at_infinity = 0
    for t in ts:
        if (t * t * t + 1).is_zero():
            at_infinity += 1
            for affine_map in (p_affine, p_affine_prime):
                with pytest.raises(ParameterAtInfinity, match=rf"^t = {t} satisfies t\^3 = -1; no affine image$"):
                    affine_map(curve, t)
        else:
            assert p_affine(curve, t) == _point(curve, t) and p_affine_prime(curve, t) == _point(curve, t, True)
    # -1 everywhere, and the two epsilon roots over fp:7 and fp:13
    assert at_infinity == (1 if curve.field.epsilon_roots() is None else 3)


@pytest.mark.parametrize("curve", [rational_curve(Fraction(2, 3)), prime_curve(5), prime_curve(65537, 2)], ids=str)
def test_a_law_call_divides_only_in_the_pair_kernel(curve, monkeypatch):
    # _quotient is the body of element division and of the public inverse charts; with it and
    # FieldElement.inverse refused, every law, inverse, perp and third intersection of chart points
    # still answers, so none of them divides outside the kernel
    points = [curve.origin, curve.infinity, curve.vertex(), *(pbar(curve, t) for t in (2, -3, 5))]
    if not curve.field.characteristic:
        points.append(pbar(curve, Fraction(2**31 - 1, 2**31 + 11)))
    expected = [_outcome(call) for call in _law_calls(curve, points)]

    def refuse(*args):
        raise AssertionError("a law divided outside the pair kernel")

    for name, module in list(sys.modules.items()):
        if name.startswith("descartes_folium") and getattr(module, "_quotient", None) is fields._quotient:
            monkeypatch.setattr(module, "_quotient", refuse)
    monkeypatch.setattr(FieldElement, "inverse", refuse)
    assert [_outcome(call) for call in _law_calls(curve, points)] == expected


def _law_calls(curve, points):
    for kind in LawKind:
        for P, Q in itertools.product(points, repeat=2):
            yield lambda kind=kind, P=P, Q=Q: apply_law(curve, kind, P, Q)
        for P in points:
            yield lambda kind=kind, P=P: law_inverse(curve, kind, P)
    for P in points:
        yield lambda P=P: perp(curve, P)
        for Q in points:
            yield lambda P=P, Q=Q: third_intersection(curve, P, Q)
