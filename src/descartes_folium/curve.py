"""The projective Descartes folium and the plane objects it lives on.

The curve is x^3 + y^3 - 3axyz = 0 in P^2(K) with a != 0.  Points
(x : y : z) and lines [m : n : p] (for m*x + n*y + p*z = 0) share one
canonical form: the triple is scaled so that the first nonzero of its
third, first and second entries is 1, on stored values by
`fields._scaled`, which the chart kernel and geometry.line_through share
(one modular inverse per triple over F_p, one Fraction per coordinate
besides the pivot over Q).  The classical literals O = (0, 0, 1),
I = (1, -1, 0) and affine points (x, y, 1) are already canonical, and a
triple at a unit pivot is kept as it stands.  One reader, `_read`, picks
the pivot.  It takes elements or plain values, for the public constructors
(`__init__` and `.of` of points and lines, and so `Folium.point` and
`Folium.line`), for the vertex and for sigma at infinity: it reads each
coordinate's stored value once, under `Field.element`'s rules, and hands
the values to `_scaled`, so no element is built that the point or line
does not keep.  `__init__` first refuses elements of two fields with its
own text.  `ProjectivePoint._marked` and `ProjectiveLine._built` store a
triple that is canonical already as it stands: the chart kernel's, which
`_scaled` shaped, sigma's swap of an affine point, where z = 1 stays the
pivot, and the chord of geometry.line_through.

The three point constructors, `__init__`, `of` and `_marked`, also store
the point's `key`, inline so that no frame is added.  Over F_p it is the
canonical residues packed into one int, x + p*(y + p*z), which is injective
because each residue lies in [0, p): it is the triple's digits in base p.
The key is read from the stored values after the triple is canonical, so
equal points carry equal keys.  verify's law tables key a product on the
two operands' keys.  Over Q the key is None: no run over Q keeps law
tables, and a key there would have to be the triple itself.  Equality and
hashing do not read the key.

Point equality answers True for the same object before it reads a
coordinate: inside a verify run the chart memo and the law tables hand back
one object for equal points.  Otherwise, as field equality is identity, it
compares the fields of the x coordinates by `is`, and hashing reads that
field directly; a line does the same with the field of m.

The exhaustive scans (point enumeration here, the line scan and the root
scan in geometry) take their residues from one guard, `_scan_range`, which
refuses the rationals and primes above ENUMERATION_BOUND.  The point
enumeration stays the naive residue loop, but it runs once per Folium
instance: the curve keeps the points as a tuple and every call returns a new
list, so at most p + 3 points are held per curve.

A point built by a chart (pbar, pbarbar, p_affine, and the curve's own
origin, infinity and vertex, which its first `vertex()` call builds once
and later calls answer) lies on the curve by construction, so it
carries that Folium in its `on` slot.  Only the private constructor
`ProjectivePoint._marked` sets the mark, for the charts, sigma and the
curve itself; the public constructors leave it None, so a caller cannot
vouch for a point it built from coordinates.  The mark has one reader,
Folium.require_on_curve, which skips the cubic for a point marked with
itself; every other point, those from raw coordinates included, is checked
on stored values by `fields._cubic_vanishes` (one reduction mod p, or the
cubic with its denominators cleared on ints over Q).  The oracles
(evaluate, contains, enumerate_points) never read the mark and keep element
arithmetic, so the boundary kernel and the oracle that checks it do not
share a fault.  The mark takes no part in equality, hashing or text.

While verify.run_suite runs on a curve, `Folium._charted` holds that run's
chart memo and, over a prime field small enough for law tables,
`Folium._front` its residue front (see parametrization); both are None
otherwise.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import BadLiteral, FieldTooLargeForScan, MixedFields, NotOnCurve, PointAtInfinity
from .fields import ENUMERATION_BOUND, Field, FieldElement, _cubic_vanishes, _scaled


def _scan_range(field: Field, what: str) -> range:
    """The residues 0, ..., p - 1 of a prime field small enough to scan exhaustively."""
    p = field.characteristic
    if not p:
        raise FieldTooLargeForScan(f"{what} needs a finite prime field")
    if p > ENUMERATION_BOUND:
        raise FieldTooLargeForScan(f"{what} requires p <= {ENUMERATION_BOUND}")
    return range(p)


def _read(field: Field, coordinates: tuple, noun: str) -> list:
    """The canonical elements of a triple of `field`'s elements or plain values, each value read once.

    Each coordinate is read as `Field.element` reads it: the field's own
    element gives its stored value, another field's goes to `Field.element`,
    which raises MixedFields, and `_raw` gives a plain value's stored value
    or raises TypeError.  At a unit pivot an element given is kept as it is
    and a plain value becomes its element; at any other pivot `_scaled`
    builds the only elements kept.
    """
    values = []
    for value in coordinates:
        if isinstance(value, FieldElement):
            values.append((value if value.field is field else field.element(value)).value)
        else:
            values.append(field._raw(value))
    x, y, z = values
    for pivot in (z, x, y):
        if pivot == 1:
            store = field._elements
            return [given if isinstance(given, FieldElement) else store[value] if store else FieldElement(field, value)
                    for given, value in zip(coordinates, values)]
        if pivot != 0:
            return _scaled(field, pivot, x, y, z)
    raise BadLiteral(f"(0 : 0 : 0) is not a {noun}")


def _require_affine(point: ProjectivePoint) -> ProjectivePoint:
    if point.is_at_infinity:
        raise PointAtInfinity(f"{point} is not an affine point")
    return point


class ProjectivePoint:
    """A point of P^2(K) in canonical form; equality is exact triple equality.

    `on` is the Folium that built the point, when a chart did; None otherwise.
    The public constructors leave it None: only `_marked` sets it.  `key` is
    x + p*(y + p*z) on the canonical residues over F_p, None over Q.
    """

    __slots__ = ("x", "y", "z", "key", "on")

    def __init__(self, x: FieldElement, y: FieldElement, z: FieldElement):
        field = x.field
        if y.field is not field or z.field is not field:
            raise MixedFields("point coordinates must share one field")
        self.on = None
        self.x, self.y, self.z = x, y, z = _read(field, (x, y, z), "projective point")
        p = field.characteristic
        self.key = x.value + p * (y.value + p * z.value) if p else None

    @classmethod
    def of(cls, field: Field, x, y, z=1) -> "ProjectivePoint":
        point = object.__new__(cls)
        point.x, point.y, point.z = x, y, z = _read(field, (x, y, z), "projective point")
        p = field.characteristic
        point.key = x.value + p * (y.value + p * z.value) if p else None
        point.on = None
        return point

    @classmethod
    def _marked(cls, x: FieldElement, y: FieldElement, z: FieldElement, on) -> "ProjectivePoint":
        """The point (x : y : z) of one field, marked with the Folium `on` (or None) that it lies on.

        The caller vouches for the mark and for the form: the triple must be
        canonical already, as `_read` and `_scaled` give it, and is stored as it stands.
        """
        point = object.__new__(cls)
        point.x, point.y, point.z = x, y, z
        p = x.field.characteristic
        point.key = x.value + p * (y.value + p * z.value) if p else None
        point.on = on
        return point

    @property
    def field(self) -> Field:
        return self.x.field

    @property
    def is_affine(self) -> bool:
        return self.z.is_one()

    @property
    def is_at_infinity(self) -> bool:
        return self.z.is_zero()

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return (
            self.x.field is other.x.field
            and self.x.value == other.x.value
            and self.y.value == other.y.value
            and self.z.value == other.z.value
        )

    def __hash__(self):
        return hash((self.x.field, self.x.value, self.y.value, self.z.value))

    def __str__(self):
        return f"({self.x} : {self.y} : {self.z})"

    __repr__ = __str__


class ProjectiveLine:
    """The line m*x + n*y + p*z = 0 in canonical form."""

    __slots__ = ("m", "n", "p")

    def __init__(self, m: FieldElement, n: FieldElement, p: FieldElement):
        field = m.field
        if n.field is not field or p.field is not field:
            raise MixedFields("line coefficients must share one field")
        self.m, self.n, self.p = _read(field, (m, n, p), "line")

    @classmethod
    def of(cls, field: Field, m, n, p) -> "ProjectiveLine":
        return cls._built(*_read(field, (m, n, p), "line"))

    @classmethod
    def _built(cls, m: FieldElement, n: FieldElement, p: FieldElement) -> "ProjectiveLine":
        """The line of three elements already in canonical form, as `_read` and `_scaled` give them."""
        line = object.__new__(cls)
        line.m, line.n, line.p = m, n, p
        return line

    @property
    def field(self) -> Field:
        return self.m.field

    def contains(self, point: ProjectivePoint) -> bool:
        """Exact incidence test; well defined on canonical forms."""
        return (self.m * point.x + self.n * point.y + self.p * point.z).is_zero()

    @property
    def through_origin(self) -> bool:
        # O = (0, 0, 1) lies on the line iff the z coefficient vanishes.
        return self.p.is_zero()

    def __eq__(self, other):
        if not isinstance(other, ProjectiveLine):
            return NotImplemented
        return (
            self.m.field is other.m.field
            and self.m.value == other.m.value
            and self.n.value == other.n.value
            and self.p.value == other.p.value
        )

    def __hash__(self):
        return hash((self.m.field, self.m.value, self.n.value, self.p.value))

    def __str__(self):
        return f"[{self.m} : {self.n} : {self.p}]"

    __repr__ = __str__


class SpecialPoints(NamedTuple):
    """The distinguished points of one folium instance.

    `vertex` is None in characteristic 2, where (3a, 3a, 2) collapses onto
    the infinite point; `vertex_equals_infinity` records that coincidence.
    """

    origin: ProjectivePoint
    infinity: ProjectivePoint
    vertex: ProjectivePoint | None
    vertex_equals_infinity: bool
    points_at_infinity: list


class Folium:
    """The projective folium x^3 + y^3 - 3axyz = 0 over an exact field, a != 0."""

    _charted = None  # the chart memo of a verify run on this curve; None outside a run
    _front = None  # that memo's residue front, in a run over a field small enough for law tables
    _vertex = None  # vertex(), once it has been built

    def __init__(self, field: Field, a):
        a = field.element(a)
        if a.is_zero():
            raise BadLiteral("the folium needs a nonzero parameter a")
        self.field = field
        self.a = a
        self.three_a = field.element(3) * a
        zero, one = field.zero, field.one
        self.origin = ProjectivePoint._marked(zero, zero, one, self)
        self.infinity = ProjectivePoint._marked(one, -one, zero, self)
        self._points = None  # enumerate_points' scan, once it has run

    def point(self, x, y, z=1) -> ProjectivePoint:
        return ProjectivePoint.of(self.field, x, y, z)

    def line(self, m, n, p) -> ProjectiveLine:
        return ProjectiveLine.of(self.field, m, n, p)

    def evaluate(self, point: ProjectivePoint) -> FieldElement:
        """Value of x^3 + y^3 - 3axyz at the point; zero iff on the curve."""
        if point.field != self.field:
            raise MixedFields(f"{point} does not live over {self.field}")
        x, y, z = point.x, point.y, point.z
        return x * x * x + y * y * y - self.three_a * x * y * z

    def contains(self, point: ProjectivePoint) -> bool:
        return self.evaluate(point).is_zero()

    def require_on_curve(self, point: ProjectivePoint) -> None:
        """Raise NotOnCurve off the curve.

        A point this curve built (`point.on is self`) is on it by construction
        and passes without evaluating the cubic; for any other point the cubic
        is decided on stored values by `fields._cubic_vanishes`.
        """
        if point.on is self:
            return
        x, y, z = point.x, point.y, point.z
        if x.field is not self.field:
            raise MixedFields(f"{point} does not live over {self.field}")
        if not _cubic_vanishes(self.field, self.three_a.value, x.value, y.value, z.value):
            raise NotOnCurve(f"{point} is not on {self}")

    def vertex(self) -> ProjectivePoint:
        """The point (3a : 3a : 2); coincides with the infinite point in char 2.

        Built by the first call, from `three_a` as it is then; later calls answer that point.
        """
        if self._vertex is None:
            self._vertex = ProjectivePoint._marked(*_read(self.field, (self.three_a, self.three_a, 2), "projective point"), self)
        return self._vertex

    def special_points(self) -> SpecialPoints:
        roots = self.field.epsilon_roots()
        at_infinity = [self.infinity]
        if roots is not None:
            at_infinity += [self.point(1, e, 0) for e in roots]
        char_two = self.field.characteristic == 2
        return SpecialPoints(
            origin=self.origin,
            infinity=self.infinity,
            vertex=None if char_two else self.vertex(),
            vertex_equals_infinity=char_two,
            points_at_infinity=at_infinity,
        )

    def gradient(self, point: ProjectivePoint) -> tuple:
        """The gradient of the defining cubic at the point."""
        x, y, z = point.x, point.y, point.z
        three = self.field.element(3)
        return (
            three * x * x - self.three_a * y * z,
            three * y * y - self.three_a * x * z,
            -self.three_a * x * y,
        )

    def is_singular_point(self, point: ProjectivePoint) -> bool:
        """True iff the gradient vanishes; on the curve that happens only at the node."""
        self.require_on_curve(point)
        return all(component.is_zero() for component in self.gradient(point))

    def enumerate_points(self) -> list:
        """All curve points by exhaustive scan of the canonical representatives, as a new list.

        Deliberately naive so it can serve as an oracle independent of the
        parametrization.  (0 : 1 : 0) is skipped: the cubic is 1 there.
        Prime fields with p <= 10^4 only.  The scan runs once per instance,
        after the guard; later calls copy its stored tuple.
        """
        residues = _scan_range(self.field, "point enumeration")
        if self._points is None:
            p = self.field.characteristic
            a3 = self.three_a.value
            points = []
            for x in residues:
                for y in residues:
                    if (x * x * x + y * y * y - a3 * x * y) % p == 0:
                        points.append(self.point(x, y, 1))
            for y in residues:
                if (1 + y * y * y) % p == 0:
                    points.append(self.point(1, y, 0))
            self._points = tuple(points)
        return list(self._points)

    def __eq__(self, other):
        if not isinstance(other, Folium):
            return NotImplemented
        return self.field == other.field and self.a == other.a

    def __hash__(self):
        return hash((self.field, self.a))

    def __repr__(self):
        return f"Folium(a={self.a} over {self.field})"
