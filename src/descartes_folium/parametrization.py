"""Normalization maps of the folium and their parameter-level companions.

Four maps parametrize the curve by the slope t = y/x of the chord from the
node:

* ``pbar(t) = (3at : 3at^2 : 1 + t^3)`` covers the whole projective curve,
  with pbar(0) = O and pbar(-1) = I;
* ``pbarbar = sigma . pbar`` swaps the two coordinates;
* ``p_affine`` and ``p_affine_prime`` are the affine restrictions, defined
  away from t^3 = -1.

The inverses are totalized at the node with value 0, which makes pbar a
bijection K -> curve and lets the additive laws act on the whole curve.
After require_on_curve they find the node by one coordinate: on the curve
x = 0 forces y^3 = 0 and y = 0 forces x^3 = 0, so either vanishes at the
node alone.

Each map marks the point it builds with its curve (ProjectivePoint.on), so
require_on_curve does not evaluate the cubic on it again; sigma keeps the
mark, since the cubic is symmetric in x and y.  Away from t^3 = -1 the maps
scale their point themselves, to (x : x t : 1) with x = 3at/(1 + t^3),
which is canonical as it stands, so they build it through
`ProjectivePoint._affine` and skip the canonicalizer.  One builder,
`_chart_point`, serves pbar, pbarbar and p_affine, and
`fields._chart_coordinates` states the formula once; over Q it builds each
coordinate from ints with one gcd.  At t^3 = -1, where 3at is nonzero,
pbar(t) is the point at infinity (1 : t : 0), which goes through the
canonicalizer, as sigma's swapped points do, and p_affine raises
ParameterAtInfinity.

The charts and their inverses compute on stored values (ints mod p or
Fractions) and build one FieldElement per coordinate of the result, through
`fields._chart_coordinates` and `fields._quotient`, and the on-curve check
of a point not built by a chart runs on stored values too
(`fields._cubic_vanishes`).  The oracles that check them (Folium.evaluate and
contains, enumerate_points, ProjectiveLine.contains and geometry.all_lines)
and each Law.op keep element arithmetic on purpose, so a fault in a kernel
cannot hide behind the same fault in its checker.
"""

from __future__ import annotations

from enum import Enum

from .curve import Folium, ProjectivePoint
from .errors import ParameterAtInfinity
from .fields import FieldElement, _chart_coordinates, _quotient


def _chart_point(curve: Folium, t, swap: bool, affine: bool = False) -> ProjectivePoint:
    """pbar(t), or pbarbar(t) when `swap`; when `affine`, p_affine(t), which refuses t^3 = -1."""
    field = curve.field
    t = field.element(t)
    coordinates = _chart_coordinates(field, curve.three_a.value, t.value)
    if coordinates is None:  # t^3 = -1 and 3at != 0, so (3at : 3at^2 : 0) is (1 : t : 0)
        if affine:
            raise ParameterAtInfinity(f"t = {t} satisfies t^3 = -1; no affine image")
        one, zero = field.one, field.zero
        return ProjectivePoint(t, one, zero, curve) if swap else ProjectivePoint(one, t, zero, curve)
    x, y = coordinates
    return ProjectivePoint._affine(y, x, curve) if swap else ProjectivePoint._affine(x, y, curve)


def pbar(curve: Folium, t) -> ProjectivePoint:
    """Projective parametrization (3at : 3at^2 : 1 + t^3); total on the field."""
    return _chart_point(curve, t, swap=False)


def pbar_inv(curve: Folium, point: ProjectivePoint) -> FieldElement:
    """Slope parameter y/x of a curve point; 0 at the node."""
    curve.require_on_curve(point)
    # On the curve x = 0 forces y^3 = 0, so x vanishes at the node alone.
    if point.x.is_zero():
        return curve.field.zero
    return _quotient(curve.field, point.y.value, point.x.value)


def pbarbar(curve: Folium, t) -> ProjectivePoint:
    """Coordinate-swapped parametrization (3at^2 : 3at : 1 + t^3)."""
    return _chart_point(curve, t, swap=True)


def pbarbar_inv(curve: Folium, point: ProjectivePoint) -> FieldElement:
    """Inverse slope parameter x/y; 0 at the node."""
    curve.require_on_curve(point)
    # Likewise y = 0 forces x^3 = 0 on the curve.
    if point.y.is_zero():
        return curve.field.zero
    return _quotient(curve.field, point.x.value, point.y.value)


def p_affine(curve: Folium, t) -> ProjectivePoint:
    """Affine parametrization (3at/(1+t^3), 3at^2/(1+t^3)) as a z = 1 point."""
    return _chart_point(curve, t, swap=False, affine=True)


def p_affine_prime(curve: Folium, t) -> ProjectivePoint:
    """The swapped affine parametrization sigma . p_affine."""
    return sigma(p_affine(curve, t))


def alpha(tau: FieldElement) -> FieldElement:
    """Shift tau -> t = tau - 1, carrying the punctured line K\\{0} to K\\{-1}."""
    return tau - 1


def alpha_inv(t: FieldElement) -> FieldElement:
    """Inverse shift t -> tau = t + 1."""
    return t + 1


def sigma(point: ProjectivePoint) -> ProjectivePoint:
    """The coordinate swap (x : y : z) -> (y : x : z); maps the curve to itself.

    The cubic is symmetric in x and y, so the swapped point keeps the mark.
    """
    return ProjectivePoint(point.y, point.x, point.z, point.on)


class ParamMap(Enum):
    """Selector for the four parametrizations, as exposed by the CLI."""

    PBAR = "pbar"
    PBARBAR = "pbarbar"
    P_AFFINE = "paffine"
    P_AFFINE_PRIME = "paffineprime"

    def evaluate(self, curve: Folium, t) -> ProjectivePoint:
        return _EVALUATORS[self](curve, t)


_EVALUATORS = {
    ParamMap.PBAR: pbar,
    ParamMap.PBARBAR: pbarbar,
    ParamMap.P_AFFINE: p_affine,
    ParamMap.P_AFFINE_PRIME: p_affine_prime,
}
