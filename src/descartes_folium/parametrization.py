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
builds the point of a pair through the one kernel `fields._pair_coordinates`,
which states that formula on ints for any representative of the slope and
leaves canonical form to `fields._scaled`.  `_pair_param` reads the pair of a
point, (y : x) over F_p and (Y dx : X dy) over Q for y = Y/dy and x = X/dx,
and (0 : 1) at the node.  The reader refuses and the builder only builds.
`_pair_param` takes the domain of the law or map that calls it: "all",
"nonzero" or "affine".  It refuses the node in the "nonzero" domain, at its
one node exit (OriginNotInGroup).  In the "affine" domain it refuses a field
with epsilon roots (FieldLacksUniqueCubeRoot), then a point at infinity
(PointAtInfinity), before the on-curve check.  `_pair_point` refuses
nothing: no law builds a point at infinity (see its docstring), and
`_chart_point`, the public charts' builder, refuses the parameter at
infinity of p_affine and p_affine_prime (ParameterAtInfinity).  For
pbarbar `_pair_point` returns sigma of pbar's point, so pbarbar =
sigma . pbar and p_affine_prime = sigma . p_affine are the code itself,
and the inverse reads (x : y).  The public maps take the pair (t : 1)
over F_p and (n : d) for t = n/d over Q, and pbar_inv and pbarbar_inv
divide the pair once.  The laws (laws.py)
compose the pairs themselves, so a law call divides only in the kernel.

The inverses are totalized at the node with value 0, which makes pbar a
bijection K -> curve and lets the additive laws act on the whole curve.
On the curve they find the node by one coordinate: x = 0 forces y^3 = 0
and y = 0 forces x^3 = 0, so either vanishes at the node alone.

Each map marks the point it builds with its curve, through
`ProjectivePoint._marked`, so `_pair_param` calls require_on_curve only for
a point that the curve did not build (`point.on is not curve`); sigma keeps
the mark, since the cubic is symmetric in x and y.
At t^3 = -1, where 3at is nonzero, pbar(t) is the point at infinity
(1 : t : 0), and p_affine and p_affine_prime, which build in the "affine"
domain, raise ParameterAtInfinity after `_pair_point` has built it.  The
parameter of such a slope is (t : 1), so the refusal names t by its n, the
same for either chart.

The key of (n : d) is its normalized pair, (n/d mod p : 1) over F_p and
the pair in lowest terms with d > 0 over Q, or (1 : 0) for d = 0 in both,
together with the `swap` flag.  It serves the memo only: the kernel is
homogeneous, so every representative of a slope gives it the same point.
Outside a verify run every call computes the key and hands the kernel the
key's pair, the smallest over Q, and a run takes that same path wherever
its memo misses, so the code a run checks is the code every caller runs.
A verify run charts the same few
slopes over and over, so while run_suite runs, the curve holds a chart
memo, `Folium._charted`, and `_pair_point` answers from it: one point per
key, so pbar and pbarbar stay two charts, each computed by the kernel and
pbarbar's swapped by sigma.
Only a miss runs the kernel and `ProjectivePoint._marked`; a kernel that
raises stores nothing, and `_chart_point` checks the affine refusal on the
answered point.  Over a prime field small enough for the run's law tables
(see verify), the memo has a residue front, `Folium._front`: `_pair_point`
first looks up (n mod p, d mod p, swap), with no inverse, and a miss takes
the key path and then files the point under those residues too, so a run
computes each slope's inverse once and the front holds at most 2p^2
points.  Outside a run `_charted` and `_front` are None: the curve commands
and library callers hold no memo, which over Q would grow without bound,
and pay one None test for the front.

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

from .curve import Folium, ProjectivePoint, _require_affine
from .errors import FieldLacksUniqueCubeRoot, OriginNotInGroup, ParameterAtInfinity
from .fields import FieldElement, _pair_coordinates, _quotient


_NODE_EXCLUDED = "the node (0 : 0 : 1) is excluded here"


def _chart_key(p: int, n: int, d: int, swap: bool) -> tuple:
    """The slope (n : d) normalized, with `swap` for pbarbar: one chart-memo key per point of P^1 and chart.

    Over F_p (n/d mod p : 1), or (1 : 0); over Q the pair in lowest terms with
    d > 0, or (1 : 0).  The kernel does not need it: it takes any
    representative.  The pair (0 : 0), mod p or over Q, raises
    ZeroDivisionError: it is no point of P^1.
    """
    if p:
        n, d = n % p, d % p
        return (n * pow(d, -1, p) % p, 1, swap) if d else (n // n, 0, swap)
    g = gcd(n, d)
    if (d or n) < 0:  # the sign of d, or of n where d = 0
        g = -g
    return n // g, d // g, swap


def _pair_point(curve: Folium, n: int, d: int, swap: bool = False) -> ProjectivePoint:
    """pbar at the slope (n : d), or pbarbar when `swap`; it refuses nothing.

    The kernel gets the pair of `_chart_key`, though any representative would
    give it the same point; inside a verify run the point comes from the
    curve's chart memo, `_charted`, under that key, and over a small prime
    field from the memo's residue front, `_front`, before the key is computed.
    No law builds a point at infinity, so no law needs a refusal here: an
    "affine" law's field has -1 as its only cube root, so n^3 + d^3 = 0 only
    where n + d = 0.  Every affine operand's pair has n + d != 0, since the
    node is the only affine curve point with x + y = 0 and it reads (0 : 1);
    a shifted product has n + d = (n1 + d1)(n2 + d2), and an inverse has n + d = d.
    """
    p, front = curve.field.characteristic, curve._front
    if front is not None:
        point = front.get(residues := (n % p, d % p, swap))
        if point is not None:
            return point
    n, d, _ = key = _chart_key(p, n, d, swap)  # the point reads `swap` from the call
    charted = curve._charted
    point = None if charted is None else charted.get(key)
    if point is None:
        point = ProjectivePoint._marked(*_pair_coordinates(curve.field, curve.three_a.value, n, d), curve)
        if swap:
            point = sigma(point)
        if charted is not None:
            charted[key] = point
    if front is not None:
        front[residues] = point
    return point


def _pair_param(curve: Folium, point: ProjectivePoint, swap: bool = False, domain: str = "all") -> tuple:
    """The slope (y : x) of a curve point as a pair of ints, or (x : y) when `swap`; (0 : 1) at the node.

    The "affine" domain refuses a field with epsilon roots, then a point at
    infinity, before the on-curve check; the "nonzero" domain refuses the node.
    """
    if domain == "affine":
        if not curve.field.has_unique_cube_root():
            raise FieldLacksUniqueCubeRoot(
                f"{curve.field} has epsilon roots, so the affine parametrization "
                "is not a bijection onto the affine curve"
            )
        _require_affine(point)
    if point.on is not curve:  # a point this curve built is on it
        curve.require_on_curve(point)
    x, y = point.x.value, point.y.value
    if swap:
        x, y = y, x
    # On the curve x = 0 forces y^3 = 0, and y = 0 forces x^3 = 0: either marks the node alone.
    if curve.field.characteristic:  # ints mod p
        if x:
            return y, x
    else:
        xn, xd = x.as_integer_ratio()
        if xn:
            yn, yd = y.as_integer_ratio()
            return yn * xd, xn * yd
    if domain == "nonzero":
        raise OriginNotInGroup(_NODE_EXCLUDED)
    return 0, 1


def _chart_point(curve: Folium, t, swap: bool = False, domain: str = "all") -> ProjectivePoint:
    """The chart at the parameter t: the pair (t : 1) over F_p, (n : d) for t = n/d over Q.

    The "affine" domain, p_affine's and p_affine_prime's, refuses t^3 = -1,
    where d is 1 and the point is (1 : t : 0) or its swap.
    """
    n, d = curve.field.element(t).value.as_integer_ratio()
    point = _pair_point(curve, n, d, swap)
    if domain == "affine" and point.z.value == 0:
        raise ParameterAtInfinity(f"t = {n} satisfies t^3 = -1; no affine image")
    return point


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
    return _chart_point(curve, t, domain="affine")


def p_affine_prime(curve: Folium, t) -> ProjectivePoint:
    """The swapped affine parametrization sigma . p_affine."""
    return _chart_point(curve, t, swap=True, domain="affine")


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
