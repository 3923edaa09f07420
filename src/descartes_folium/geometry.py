"""Chords, tangents, third intersections, and the geometric product law.

A line not through the node meets the curve where the slope parameter
satisfies the cubic t^3 - 3an t^2 - 3am t + 1 = 0 (for the line written as
m x + n y = z), so three non-node points are collinear exactly when their
parameters multiply to -1.  Everything here is exact; the slope cubic and
the full line enumeration over small prime fields serve as oracles that are
independent of the transported laws.

Roots come from one synthetic division on ints: over F_p the cubic is
evaluated at every residue, deflated at the roots; over Q it is deflated at
one integer per monotone run of the cubic scaled to integer roots.
The line-point oracle filters the curve's enumeration by incidence over F_p
and substitutes the line into the curve's cubic over Q; slope_cubic_check
asks it for the line's points itself, so it takes only the curve and the
line.  Behind it, `_slope_cubic_holds` takes the points, so a caller that
already holds the oracle's answer for a line does not ask for it again.
collinear3 decides x1 x2 x3 + y1 y2 y3 = 0 on stored ints through
`fields._collinear_vanishes`, as `fields._cubic_vanishes` decides the cubic.
line_through takes the cross product on stored values too (residues over
F_p, each triple with its denominators cleared over Q) and scales it once
with `fields._scaled`.  The oracles keep element arithmetic, the incidence
test `ProjectiveLine.contains` and `_curve_points_on_line`, and so do
`tangent_at` and `perpendicular_chord_check`.  The perpendicularity test is
collinear3's identity with the vertex times 3a/2, so if both ran on one
kernel, the verify row perpendicular_iff_vertex_collinear would compare
that kernel with itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from .curve import Folium, ProjectiveLine, ProjectivePoint, _require_affine, _scan_range
from .errors import (
    CoincidentPoints,
    LineThroughOrigin,
    MixedFields,
    OriginNotAllowed,
    SingularPoint,
    UnorderedField,
    VertexNotAllowed,
)
from .fields import Field, _collinear_vanishes, _scaled
from .laws import perp
from .parametrization import _pair_param, _pair_point, pbar, pbar_inv


def line_through(p1: ProjectivePoint, p2: ProjectivePoint) -> ProjectiveLine:
    """The unique line through two distinct points: the cross product of their triples.

    The product is taken on stored values: the residues over F_p, and over Q
    each point's triple with its denominators cleared, so ints either way.
    `fields._scaled` divides it by its first nonzero of the third, first and
    second entries, so no element is built but the line's own three.
    """
    if p1 == p2:
        raise CoincidentPoints(f"{p1} and {p2} do not span a line")
    field = p1.x.field
    if p2.x.field is not field:
        raise MixedFields(f"cannot combine elements of {field} and {p2.x.field}")
    x1, y1, z1, x2, y2, z2 = p1.x.value, p1.y.value, p1.z.value, p2.x.value, p2.y.value, p2.z.value
    char = field.characteristic
    if not char:
        dx, dy, dz = x1.denominator, y1.denominator, z1.denominator
        x1, y1, z1 = x1.numerator * dy * dz, y1.numerator * dx * dz, z1.numerator * dx * dy
        dx, dy, dz = x2.denominator, y2.denominator, z2.denominator
        x2, y2, z2 = x2.numerator * dy * dz, y2.numerator * dx * dz, z2.numerator * dx * dy
    m, n, p = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2
    if char:
        m, n, p = m % char, n % char, p % char
    return ProjectiveLine._built(*_scaled(field, p or m or n, m, n, p))


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

    Computed from the slope-product identity t1 t2 t3 = -1 on slope pairs,
    t3 = (-d1 d2 : n1 n2), so the result is exact and never the node.  Each
    operand is read in the "nonzero" domain, which refuses the node.
    """
    n1, d1 = _pair_param(curve, p1, False, "nonzero")
    n2, d2 = _pair_param(curve, p2, False, "nonzero")
    return _pair_point(curve, -d1 * d2, n1 * n2)


def collinear3(
    curve: Folium, p1: ProjectivePoint, p2: ProjectivePoint, p3: ProjectivePoint
) -> bool:
    """Coordinate form of collinearity: x1 x2 x3 + y1 y2 y3 = 0 (node allowed).

    After the three on-curve checks `fields._collinear_vanishes` decides the
    identity on the stored values, so no element and no Fraction is built.
    """
    for point in (p1, p2, p3):
        curve.require_on_curve(point)
    return _collinear_vanishes(curve.field, p1.x.value, p2.x.value, p3.x.value, p1.y.value, p2.y.value, p3.y.value)


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

    The line must avoid the node, so its canonical form is m x + n y + z = 0;
    then c2 = 3a n and c1 = 3a m.
    """
    if line.through_origin:
        raise LineThroughOrigin(f"{line} passes through the node")
    return curve.three_a * line.n, curve.three_a * line.m


def _deflate(values: list, r: int) -> tuple:
    """Synthetic division of an int polynomial (descending coefficients) by t - r: (quotient, remainder)."""
    acc, quotient = 0, []
    for c in values:
        acc = acc * r + c
        quotient.append(acc)
    remainder = quotient.pop()
    return quotient, remainder


def _integer_candidates(values: list) -> list:
    """Ascending integers among which are all integer roots of the monic cubic s^3 + b s^2 + c s + d.

    Inside the Cauchy bound, the cubic is monotone on the integer runs cut at the floors of its
    critical points (-b +- sqrt(b^2 - 3c)) / 3, so one bisection per run finds its only possible root.
    """
    _, b, c, d = values
    bound = 1 + max(abs(b), abs(c), abs(d))
    cuts = [-bound - 1, bound]
    disc = b * b - 3 * c
    if disc > 0:
        root = isqrt(disc)
        cuts[1:1] = (-b - root - (root * root < disc)) // 3, (-b + root) // 3
    candidates = set()
    for sign, lo, hi in zip((1, -1, 1), cuts, cuts[1:]):
        lo += 1  # the run is lo..hi, and sign * cubic increases on it
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * _deflate(values, mid)[1] < 0:
                lo = mid + 1
            else:
                hi = mid
        candidates.add(lo)
    return sorted(candidates)


def roots_with_multiplicity(field: Field, coeffs: list) -> list:
    """Roots of a monic cubic in the base field, with multiplicity, in ascending order.

    The work is on ints.  Over F_p the cubic is evaluated at every residue
    (Horner, mod p) and deflated at the roots.  Over Q the cubic, cleared to
    L t^3 + B t^2 + C t + D, becomes the monic int cubic s^3 + B s^2 + CL s + DL^2
    in s = L t, whose rational roots are integers: `_integer_candidates` finds
    them.  A candidate's multiplicity is the count of `_deflate` divisions that
    leave no remainder (mod p over F_p).
    """
    p = field.characteristic
    values = [c.value for c in coeffs]
    if p:
        _, b, c, d = values
        candidates = [r for r in _scan_range(field, "root scan") if (((r + b) * r + c) * r + d) % p == 0]
    else:
        scale = lcm(*(v.denominator for v in values))
        _, b, c, d = (v.numerator * (scale // v.denominator) for v in values)
        values = [1, b, c * scale, d * scale * scale]
        candidates = _integer_candidates(values)
    pairs = []
    for r in candidates:
        multiplicity, (poly, remainder) = 0, _deflate(values, r)
        while not (remainder % p if p else remainder):
            multiplicity += 1
            poly, remainder = _deflate(poly, r)
        if multiplicity:
            pairs.append((field.element(r if p else Fraction(r, scale)), multiplicity))
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
    """The curve points on a line, found without the slope cubic or a chart.

    The line must miss the node; every caller's does, so the node fails the
    incidence test and never needs a test of its own.
    """
    field = curve.field
    char = field.characteristic
    if char:
        # brute-force enumeration filtered by incidence, on the stored ints
        m, n, p = line.m.value, line.n.value, line.p.value
        return [
            point
            for point in curve.enumerate_points()
            if (m * point.x.value + n * point.y.value + p * point.z.value) % char == 0
        ]
    # z = -(m x + n y) turns the cubic into x^3 + 3am x^2 y + 3an x y^2 + y^3.
    # On the curve y = 0 forces x = 0, the node, so the points are (s : 1 : z) for
    # the rational roots s = x/y of that binary cubic with y set to 1.
    m, n, one = line.m, line.n, field.one
    roots = roots_with_multiplicity(field, [one, curve.three_a * m, curve.three_a * n, one])
    return [ProjectivePoint(s, one, -(m * s + n)) for s, _ in roots]


def slope_cubic_check(curve: Folium, line: ProjectiveLine) -> bool:
    """True iff every non-node curve point on the line has its parameter among the cubic's roots.

    The points come from `_curve_points_on_line`: over prime fields the
    enumeration oracle filtered by incidence, over the rationals the rational
    roots of the line substituted into the curve's own cubic.  Each is
    re-checked, so a point off the line or the curve makes the check fail.
    """
    return _slope_cubic_holds(curve, line, slope_cubic(curve, line), _curve_points_on_line(curve, line))


def _slope_cubic_holds(curve: Folium, line: ProjectiveLine, cubic: tuple, points) -> bool:
    """slope_cubic_check's verdict on the line's points as the line-point oracle gave them."""
    c2, c1 = cubic
    for point in points:
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
