"""Curve membership is checked at the boundary: a point from raw coordinates, or
one built on another curve, is evaluated against the cubic wherever a curve
point is required."""

import pytest

from descartes_folium import LawKind, NotOnCurve, ProjectivePoint, Rationals, pbar
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
