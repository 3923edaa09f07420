"""Chords, tangents, third intersections, and the geometric product law.

A line not through the node meets the curve where the slope parameter
satisfies the cubic t^3 - 3an t^2 - 3am t + 1 = 0 (for the line written as
m x + n y = z), so three non-node points are collinear exactly when their
parameters multiply to -1.  Everything here is exact; the slope cubic and
the full line enumeration over small prime fields serve as oracles that are
independent of the transported laws.

Over F_p the root scan evaluates the polynomial on the stored ints at every
residue and deflates only the roots it finds, and the line-point oracle
filters the curve's enumeration by incidence on the stored ints.  Over Q the
roots come from the rational-root candidates, and the line points from the
line substituted into the curve's cubic.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from .curve import Folium, ProjectiveLine, ProjectivePoint, _require_affine, _scan_range
from .errors import (
    CoincidentPoints,
    LineThroughOrigin,
    OriginNotAllowed,
    SingularPoint,
    UnorderedField,
    VertexNotAllowed,
)
from .fields import Field, FieldElement
from .laws import nonzero_param, perp
from .parametrization import pbar, pbar_inv


def line_through(p1: ProjectivePoint, p2: ProjectivePoint) -> ProjectiveLine:
    """The unique line through two distinct points (cross product of the triples)."""
    if p1 == p2:
        raise CoincidentPoints(f"{p1} and {p2} do not span a line")
    return ProjectiveLine(
        p1.y * p2.z - p1.z * p2.y,
        p1.z * p2.x - p1.x * p2.z,
        p1.x * p2.y - p1.y * p2.x,
    )


def tangent_at(curve: Folium, point: ProjectivePoint) -> ProjectiveLine:
    """The tangent line at a nonsingular curve point, from the gradient of the cubic."""
    curve.require_on_curve(point)
    if point == curve.origin:
        raise SingularPoint("the node is singular; it has no unique tangent")
    return ProjectiveLine(*curve.gradient(point))


def chord_or_tangent(curve: Folium, p1: ProjectivePoint, p2: ProjectivePoint) -> ProjectiveLine:
    """The chord through two distinct points, or the tangent when they coincide."""
    if p1 == p2:
        return tangent_at(curve, p1)
    curve.require_on_curve(p1)
    curve.require_on_curve(p2)
    return line_through(p1, p2)


def third_intersection(curve: Folium, p1: ProjectivePoint, p2: ProjectivePoint) -> ProjectivePoint:
    """The third curve point on the chord (or tangent) of two non-node points.

    Computed from the slope-product identity t1 t2 t3 = -1, so the result is
    exact and never the node.
    """
    t3 = -(nonzero_param(curve, p1) * nonzero_param(curve, p2)).inverse()
    result = pbar(curve, t3)
    assert result != curve.origin  # t3 = -1/(t1 t2) cannot vanish
    return result


def collinear3(
    curve: Folium, p1: ProjectivePoint, p2: ProjectivePoint, p3: ProjectivePoint
) -> bool:
    """Coordinate form of collinearity: x1 x2 x3 + y1 y2 y3 = 0 (node allowed)."""
    for point in (p1, p2, p3):
        curve.require_on_curve(point)
    return (p1.x * p2.x * p3.x + p1.y * p2.y * p3.y).is_zero()


def geometric_mul(curve: Folium, p1: ProjectivePoint, p2: ProjectivePoint) -> ProjectivePoint:
    """The product law realized geometrically: the perp of the third intersection."""
    return perp(curve, third_intersection(curve, p1, p2))


def geometric_mul_via_vertex(
    curve: Folium, p1: ProjectivePoint, p2: ProjectivePoint
) -> ProjectivePoint:
    """The product law via the vertex: third intersection of the line V - P3."""
    p3 = third_intersection(curve, p1, p2)
    return third_intersection(curve, curve.vertex(), p3)


# -- the slope cubic and its roots ---------------------------------------


def slope_cubic(curve: Folium, line: ProjectiveLine) -> tuple:
    """Coefficients (c2, c1) of t^3 + c2 t^2 + c1 t + 1 cutting out line-curve intersections.

    The line must avoid the node; it is rewritten as m'x + n'y = z and then
    c2 = -3a n', c1 = -3a m'.
    """
    if line.through_origin:
        raise LineThroughOrigin(f"{line} passes through the node")
    m_prime = -(line.m / line.p)
    n_prime = -(line.n / line.p)
    return -(curve.three_a * n_prime), -(curve.three_a * m_prime)


def _deflate(coeffs: list, root: FieldElement):
    # synthetic division of a monic polynomial (descending coeffs) by (t - root)
    quotient = []
    acc = coeffs[0]
    for c in coeffs[1:]:
        quotient.append(acc)
        acc = acc * root + c
    return quotient, acc


def _divisors(n: int) -> set:
    n = abs(n)
    small = [i for i in range(1, isqrt(n) + 1) if n % i == 0]
    return {*small, *(n // i for i in small)}


def _root_candidates(field: Field, coeffs: list):
    """Rational-root candidates over Q: +-u/v with u dividing the constant and v the lead."""
    scale = lcm(*(c.value.denominator for c in coeffs))
    cleared = [int(c.value * scale) for c in coeffs]
    lead, const = cleared[0], cleared[-1]
    if const == 0:
        raise ValueError("root candidates need a nonzero constant term")
    seen = set()
    for u in _divisors(const):
        for v in _divisors(lead):
            seen.add(Fraction(u, v))
            seen.add(Fraction(-u, v))
    return [field.element(value) for value in sorted(seen)]


def roots_with_multiplicity(field: Field, coeffs: list) -> list:
    """Roots of a monic polynomial in the base field, with multiplicity.

    Over F_p every residue is a candidate, in ascending order: the polynomial
    is evaluated on the stored ints by Horner's rule, and only the residues
    where it vanishes are deflated.  Over Q the candidates come from
    `_root_candidates`.
    """
    p = field.characteristic
    if p:
        values = [c.value for c in coeffs]
        candidates = []
        for r in _scan_range(field, "root scan"):
            acc = 0
            for c in values:
                acc = acc * r + c
            if acc % p == 0:
                candidates.append(field.element(r))
    else:
        candidates = _root_candidates(field, coeffs)
    pairs = []
    for candidate in candidates:
        poly = coeffs
        multiplicity = 0
        while len(poly) > 1:
            quotient, remainder = _deflate(poly, candidate)
            if not remainder.is_zero():
                break
            multiplicity += 1
            poly = quotient
        if multiplicity:
            pairs.append((candidate, multiplicity))
    return pairs


def line_curve_intersections(curve: Folium, line: ProjectiveLine) -> list:
    """Curve points on a line not through the node, with intersection multiplicity.

    The multiplicities are the root multiplicities of the slope cubic; the
    multiplicities sum to 3 exactly when the line is fully split over the
    base field.
    """
    c2, c1 = slope_cubic(curve, line)
    one = curve.field.one
    roots = roots_with_multiplicity(curve.field, [one, c2, c1, one])
    return [(pbar(curve, root), multiplicity) for root, multiplicity in roots]


def _curve_points_on_line(curve: Folium, line: ProjectiveLine) -> list:
    """The non-node curve points on a line that misses the node, found without the slope cubic or a chart."""
    field = curve.field
    char = field.characteristic
    if char:
        # brute-force enumeration filtered by incidence, on the stored ints
        m, n, p = line.m.value, line.n.value, line.p.value
        return [
            point
            for point in curve.enumerate_points()
            if (m * point.x.value + n * point.y.value + p * point.z.value) % char == 0
            and point != curve.origin
        ]
    # z = -(m x + n y)/p turns the cubic into x^3 + 3a(m/p) x^2 y + 3a(n/p) x y^2 + y^3.
    # On the curve y = 0 forces x = 0, the node, so the points are (s : 1 : z) for
    # the rational roots s = x/y of that binary cubic with y set to 1.
    m, n, one = line.m / line.p, line.n / line.p, field.one
    roots = roots_with_multiplicity(field, [one, curve.three_a * m, curve.three_a * n, one])
    return [ProjectivePoint(s, one, -(m * s + n)) for s, _ in roots]


def slope_cubic_check(curve: Folium, line: ProjectiveLine, points=None) -> bool:
    """True iff every non-node curve point on the line has its parameter among the cubic's roots.

    The points are `points` when given, else `_curve_points_on_line`: over
    prime fields the enumeration oracle filtered by incidence, over the
    rationals the rational roots of the line substituted into the curve's own
    cubic.  Each is re-checked, so a point off the line or the curve makes the
    check fail.
    """
    c2, c1 = slope_cubic(curve, line)
    for point in _curve_points_on_line(curve, line) if points is None else points:
        if not (curve.contains(point) and line.contains(point)):
            return False
        t = pbar_inv(curve, point)
        if not (((t + c2) * t + c1) * t + 1).is_zero():
            return False
    return True


def all_lines(field: Field):
    """All p^2 + p + 1 canonical lines of P^2(F_p); the scan guard runs at the first line."""
    residues = _scan_range(field, "line enumeration")
    for m in residues:
        for n in residues:
            yield ProjectiveLine.of(field, m, n, 1)
    for n in residues:
        yield ProjectiveLine.of(field, 1, n, 0)
    yield ProjectiveLine.of(field, 0, 1, 0)


def perpendicular_chord_check(
    curve: Folium, p: ProjectivePoint, q: ProjectivePoint
) -> bool:
    """Euclidean perpendicularity of the chords from the node: x_P x_Q + y_P y_Q = 0.

    Only meaningful over the rationals; equivalent to collinearity with the
    vertex.  Both points must be affine, distinct from the node and vertex.
    """
    if curve.field.characteristic != 0:
        raise UnorderedField("perpendicularity needs the ordered field of rationals")
    vertex = curve.vertex()
    for point in (p, q):
        curve.require_on_curve(point)
        if point == curve.origin:
            raise OriginNotAllowed("the node has no chord direction")
        if point == vertex:
            raise VertexNotAllowed("the vertex is excluded from the perpendicularity test")
        _require_affine(point)
    return (p.x * q.x + p.y * q.y).is_zero()
