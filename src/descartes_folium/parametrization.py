"""Normalization maps of the folium and their parameter-level companions.

Four maps parametrize the curve by the slope t = y/x of the chord from the
node:

* ``pbar(t) = (3at : 3at^2 : 1 + t^3)`` covers the whole projective curve,
  with pbar(0) = O and pbar(-1) = I;
* ``pbarbar = sigma . pbar`` swaps the two coordinates;
* ``p_affine`` and ``p_affine_prime`` are the affine restrictions, defined
  away from t^3 = -1.

Homogenized, pbar is the normalization P^1 -> curve,
(n : d) -> (3and^2 : 3an^2d : n^3 + d^3), which sends both (0 : 1) and
(1 : 0) to the node; off the node its inverse is (x : y : z) -> (y : x),
with no division.  So the maps work on slope pairs of ints: `_pair_point`
builds the point of a pair through the one kernel
`fields._pair_coordinates`, and `_pair_param` reads the pair of a point,
(y : x) over F_p and (Y dx : X dy) over Q for y = Y/dy and x = X/dx, and
(0 : 1) at the node; pbarbar swaps the coordinates of pbar's point, and its
inverse reads (x : y).  The public maps take the pair (t : 1) over F_p and
(n : d) for t = n/d over Q, and pbar_inv and pbarbar_inv divide the pair
once.  The laws (laws.py) compose the pairs themselves, so a law call
divides only in the kernel.

The inverses are totalized at the node with value 0, which makes pbar a
bijection K -> curve and lets the additive laws act on the whole curve.
After require_on_curve they find the node by one coordinate: on the curve
x = 0 forces y^3 = 0 and y = 0 forces x^3 = 0, so either vanishes at the
node alone.

Each map marks the point it builds with its curve, through
`ProjectivePoint._marked`, so require_on_curve does not evaluate the cubic
on it again; sigma keeps the mark, since the cubic is symmetric in x and y.
At t^3 = -1, where 3at is nonzero, pbar(t) is the point at infinity
(1 : t : 0), and p_affine raises ParameterAtInfinity.

A verify run charts the same few slopes over and over, so while run_suite
runs, the curve holds a chart memo, `Folium._charted`, and `_pair_point`
answers from it: one point per key, where the key of (n : d) is the residue
n/d over F_p and the pair in lowest terms with d > 0 over Q, or (1 : 0)
for d = 0 in both, together with the `swap` flag.  So pbar and pbarbar stay
two charts, each computed by the kernel.  Only a miss runs the kernel and
`ProjectivePoint._marked`; a kernel that raises stores nothing, and the
affine refusal is checked on the answered point.  Outside a run `_charted`
is None and no key is computed: the curve commands and library callers
neither pay for the memo nor hold one, which over Q would grow without
bound.

The charts, their inverses and the on-curve check of a point not built by a
chart (`fields._cubic_vanishes`) compute on stored values.  The oracles that
check them (Folium.evaluate and contains, enumerate_points,
ProjectiveLine.contains and geometry.all_lines) keep element arithmetic on
purpose, as do the verify rows that compare a law with the chart of an
element operation on the parameters, so a fault in a kernel cannot hide
behind the same fault in its checker.
"""

from __future__ import annotations

from enum import Enum
from math import gcd

from .curve import Folium, ProjectivePoint
from .errors import ParameterAtInfinity
from .fields import FieldElement, _pair_coordinates, _quotient


def _chart_key(p: int, n: int, d: int, swap: bool) -> tuple:
    """The memo key of the slope (n : d) under pbar, or pbarbar when `swap`: one key per point of P^1.

    Over F_p the residue n/d, or (1 : 0); over Q the pair in lowest terms with
    d > 0, or (1 : 0).  A pair that is (0 : 0) mod p keys to (0, 0), which is
    never stored, since the kernel refuses it; over Q the gcd refuses it here.
    """
    if p:
        n, d = n % p, d % p
        return (n * pow(d, -1, p) % p, 1, swap) if d else (min(n, 1), 0, swap)
    g = gcd(n, d)
    if (d or n) < 0:  # the sign of d, or of n where d = 0
        g = -g
    return n // g, d // g, swap


def _pair_point(curve: Folium, n: int, d: int, swap: bool = False, affine: bool = False) -> ProjectivePoint:
    """pbar at the slope (n : d), or pbarbar when `swap`; when `affine`, p_affine, which refuses n^3 + d^3 = 0.

    Inside a verify run the point comes from the curve's chart memo, `_charted`.
    """
    charted = curve._charted
    if charted is None:
        point = _charted_point(curve, n, d, swap)
    else:
        key = _chart_key(curve.field.characteristic, n, d, swap)
        point = charted.get(key)
        if point is None:
            point = charted[key] = _charted_point(curve, n, d, swap)
    if affine and point.z.value == 0:  # (1 : t : 0) with t^3 = -1
        raise ParameterAtInfinity(f"t = {point.y} satisfies t^3 = -1; no affine image")
    return point


def _charted_point(curve: Folium, n: int, d: int, swap: bool) -> ProjectivePoint:
    """The point the kernel builds at the slope (n : d), swapped when `swap`, marked with the curve."""
    x, y, z = _pair_coordinates(curve.field, curve.three_a.value, n, d)
    return ProjectivePoint._marked(y, x, z, curve) if swap else ProjectivePoint._marked(x, y, z, curve)


def _pair_param(curve: Folium, point: ProjectivePoint, swap: bool = False) -> tuple:
    """The slope (y : x) of a curve point as a pair of ints, or (x : y) when `swap`; (0 : 1) at the node."""
    curve.require_on_curve(point)
    x, y = point.x.value, point.y.value
    if swap:
        x, y = y, x
    xn, xd = x.as_integer_ratio()  # an int's ratio is (x, 1)
    # On the curve x = 0 forces y^3 = 0, and y = 0 forces x^3 = 0: either marks the node alone.
    if xn == 0:
        return 0, 1
    yn, yd = y.as_integer_ratio()
    return yn * xd, xn * yd


def _chart_point(curve: Folium, t, swap: bool = False, affine: bool = False) -> ProjectivePoint:
    """The chart at the parameter t: the pair (t : 1) over F_p, (n : d) for t = n/d over Q."""
    n, d = curve.field.element(t).value.as_integer_ratio()
    return _pair_point(curve, n, d, swap, affine)


def pbar(curve: Folium, t) -> ProjectivePoint:
    """Projective parametrization (3at : 3at^2 : 1 + t^3); total on the field."""
    return _chart_point(curve, t)


def pbar_inv(curve: Folium, point: ProjectivePoint) -> FieldElement:
    """Slope parameter y/x of a curve point; 0 at the node."""
    return _quotient(curve.field, *_pair_param(curve, point))


def pbarbar(curve: Folium, t) -> ProjectivePoint:
    """Coordinate-swapped parametrization (3at^2 : 3at : 1 + t^3)."""
    return _chart_point(curve, t, swap=True)


def pbarbar_inv(curve: Folium, point: ProjectivePoint) -> FieldElement:
    """Inverse slope parameter x/y; 0 at the node."""
    return _quotient(curve.field, *_pair_param(curve, point, swap=True))


def p_affine(curve: Folium, t) -> ProjectivePoint:
    """Affine parametrization (3at/(1+t^3), 3at^2/(1+t^3)) as a z = 1 point."""
    return _chart_point(curve, t, affine=True)


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
    return ProjectivePoint._marked(point.y, point.x, point.z, point.on)


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
