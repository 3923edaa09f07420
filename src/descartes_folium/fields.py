"""Exact arithmetic over the supported base fields.

Two fields are supported: the rationals (values are reduced
`fractions.Fraction` instances, denominator always positive) and prime
fields F_p (values are canonical residues in [0, p)).  Characteristic 3 is
rejected outright because the cubic x^3 + y^3 - 3axyz degenerates there.
No floating point appears anywhere in this module.

Each field is one object: `Rationals()` always returns the same instance,
and `PrimeField(p)` returns the one live instance for p, creating it (after
validation, under a lock) when there is none.  So field equality and hashing
are `object`'s identity, and each field builds its `zero` and `one` once.
The modulus is read with `operator.index`, so a float or a string such as
7.9 or "13" is refused with BadLiteral, not truncated or parsed.

`Field` states once what all fields share: `element`, `epsilon_roots`,
`has_unique_cube_root`, `__str__` (the spec string) and `__reduce__`, which
pickles and copies a field as `field_from_spec` of its spec string, so to
the same object.  Each field states only what its values are: `_raw`,
`from_literal`, `random_element`, `spec_string` and `__repr__`.

A prime field with p <= ENUMERATION_BOUND also stores its elements, one per
residue, in the tuple `_elements`, built with the field (the table method of
finite-field arithmetic).  Every element of such a field that this module
makes comes from it, so an operation looks its result up where it would
build one.  A larger prime field, whose residues rarely repeat, and Q, whose
Fractions are unbounded, store none (`_elements` is empty) and build each
element fresh.  A stored element is shared by every operation that yields
its residue, so nothing may assign to an element's `field` or `value` after
`FieldElement.__init__`.  Equality and hashing of elements stay by value,
and nothing decides what an element is by identity.

Each element rule is stated once: `Field.element` checks membership through
each field's `_raw`, which also coerces operands; one template makes `+`, `-`
and `*`; `characteristic` alone tells the fields apart.  The template reads an
element of the same field directly and reduces the result in place (the
stored element of `raw % p` where there is one, else a new element of
`raw % p` over F_p or of `raw` over Q), so an operation on two elements is
one Python frame besides a new element's; any other operand goes through
`_coerced`, which raises MixedFields for an element of another field.
`_quotient` is division's one body, kept apart: over Q it builds u / v as one
Fraction from the cross products of the ints, one gcd, where `a * (1 / b)`
would normalize two; the public inverse charts of parametrization.py
divide a slope pair with it.  The cold operators are derived from these:
`-x` is `zero - x`, `x.inverse()` is `_quotient` of 1 by x, and a power
goes through `Field.element`, so none of them repeats the reduction or the
store lookup.  `_pair_coordinates` is the one chart kernel,
which the public charts and every law share: the homogenized pbar, (n : d) ->
(3and^2 : 3an^2d : n^3 + d^3), as a triple of ints with 3a = A/B read as
ints.  It takes any pair that represents the slope; parametrization._chart_key
normalizes the pair only to key the chart memo.

`_scaled` alone puts a triple in canonical form, for the kernel's triples,
for every point and line that curve.py builds (`_canonical` on elements,
`_read` on the stored values of the public `.of` constructors) and for the
chord that geometry.line_through takes on ints: it divides by the pivot, with
one modular inverse per triple over F_p and one Fraction per other coordinate
over Q, where `pivot.inverse()` and three element products would build four;
the pivot coordinate is `one`, with no division.  The laws compose slope
pairs on ints, so a law call divides only in the key's normalization and in
`_scaled`.  `_cubic_vanishes`, which admits raw points in curve.py, decides
x^3 + y^3 - 3axyz = 0 for stored values, with one `% p` over F_p and, over
Q, on the ints with the denominators cleared, so no Fraction and no gcd;
`_collinear_vanishes` decides geometry.collinear3's x1 x2 x3 + y1 y2 y3 = 0
the same way.  Over Q, `Rationals._raw` stores a value whose type is exactly
Fraction as it is: it is immutable and already in lowest terms.

Whether -1 is the only cube root of -1, the condition of the affine charts
and the exotic laws, is one closed form on the characteristic:
`has_unique_cube_root` is `characteristic % 3 != 1`, since F_p* is cyclic of
order p - 1 and so holds a primitive sixth root of unity exactly when 3
divides p - 1, and Q holds none.  `Field.epsilon_roots` asks it before it
searches for the roots, so the verify row that compares the two checks the
roots against an independent fact.
"""

from __future__ import annotations

import operator
import re
import sys
import threading
import weakref
from fractions import Fraction

from .errors import BadLiteral, DivisionByZero, MixedFields

# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, 2015); larger moduli are rejected, not guessed at.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981

# Brute-force scans, and the element store of a prime field, stay within this many residues.
ENUMERATION_BOUND = 10_000

_RATIONAL_LITERAL = re.compile(r"^[+-]?\d+(\s*/\s*\d+)?$")
_INTEGER_LITERAL = re.compile(r"^[+-]?\d+$")
# Fraction builds 10**exponent in full, in time quadratic in its digits.
_EXPONENT = re.compile(r"[eE]([+-]?\d+(?:_\d+)*)\s*$")


def _within_digit_limit(text: str) -> str:
    """The literal itself, unless an integer it spells out, 10**exponent included, is over int()'s limit."""
    limit = sys.get_int_max_str_digits()
    digits = max((len(run.replace("_", "")) for run in re.findall(r"[\d_]+", text)), default=0)
    if limit and digits <= limit and (exponent := _EXPONENT.search(text)):
        digits = abs(int(exponent[1])) + sum(c.isdecimal() for c in text[: exponent.start()])
    if limit and digits > limit:
        raise BadLiteral(f"an integer of {digits} digits is over the limit of {limit} digits")
    return text


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises BadLiteral at or above MILLER_RABIN_BOUND."""
    if n >= MILLER_RABIN_BOUND:
        raise BadLiteral(f"primality is decided only below {MILLER_RABIN_BOUND}, got {n}")
    if n < 2:
        return False
    for base in _MILLER_RABIN_BASES:
        if n % base == 0:
            return n == base
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in _MILLER_RABIN_BASES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _quotient(field, u, v) -> "FieldElement":
    """The element u / v of two stored values; DivisionByZero when v is zero.

    Over Q the quotient is one Fraction of the cross products of the ints, one
    gcd, where Fraction's own `/` dispatches through its operator fallbacks and takes two.
    """
    if v == 0:
        raise DivisionByZero("division by the zero element")
    p = field.characteristic
    if p:
        r = u * pow(v, -1, p) % p
        return field._elements[r] if field._elements else FieldElement(field, r)
    return FieldElement(field, Fraction(u.numerator * v.denominator, u.denominator * v.numerator))


def _pair_coordinates(field, a3, n, d) -> "tuple[FieldElement, FieldElement, FieldElement]":
    """The canonical coordinates of pbar at the slope (n : d), any pair of ints that is not (0 : 0).

    Homogenized, pbar is (n : d) -> (3a n d^2 : 3a n^2 d : n^3 + d^3); with
    3a = A/B it is the triple of ints (A n d^2 : A n^2 d : B (n^3 + d^3)), so
    (kn : kd) gives the same point for every k that is nonzero in the field,
    and the node is the image of (0 : 1) and of (1 : 0) alike.  `_scaled`
    puts the triple in canonical form.  Where n^3 + d^3 = 0, n, d and A are
    nonzero, so x is the pivot: the point at infinity (1 : n/d : 0).
    """
    x, y, z = a3.numerator * n * d * d, a3.numerator * n * n * d, a3.denominator * (n * n * n + d * d * d)
    if field.characteristic:
        z %= field.characteristic
    return _scaled(field, z or x, x, y, z)


def _scaled(field, pivot, x, y, z) -> "tuple[FieldElement, FieldElement, FieldElement]":
    """The elements x / pivot, y / pivot and z / pivot of stored values or ints; pivot is one of them, nonzero.

    The pivot coordinate is `field.one`, with no division: over Q and over a
    prime field that stores no elements, the coordinate that is the pivot
    object (an identical value equals the pivot, so its quotient is 1); with a
    store, `store[1]`.  Over F_p the others share one modular inverse; over Q
    each is one Fraction of the cross products of the ints, so one gcd each.
    The canonical form of every point and line (curve._canonical and
    curve._read), of every chart point (`_pair_coordinates`) and of every
    chord (geometry.line_through, on ints over Q) comes from here.
    """
    p, one = field.characteristic, field.one
    if p:
        s, store = pow(pivot, -1, p), field._elements
        if store:  # the pivot's residue is 1, and store[1] is one
            return store[x * s % p], store[y * s % p], store[z * s % p]
        return (
            one if x is pivot else FieldElement(field, x * s % p),
            one if y is pivot else FieldElement(field, y * s % p),
            one if z is pivot else FieldElement(field, z * s % p),
        )
    n, d = pivot.numerator, pivot.denominator
    return (
        one if x is pivot else FieldElement(field, Fraction(x.numerator * d, x.denominator * n)),
        one if y is pivot else FieldElement(field, Fraction(y.numerator * d, y.denominator * n)),
        one if z is pivot else FieldElement(field, Fraction(z.numerator * d, z.denominator * n)),
    )


def _cubic_vanishes(field, a3, x, y, z) -> bool:
    """True iff x^3 + y^3 - a3 x y z = 0 for stored values.

    Over F_p it is one reduction mod p.  Over Q, with x = X/dx, y = Y/dy,
    z = Z/dz and a3 = A/B, the cubic times B dz dx^3 dy^3 is compared on ints:
    B dz (u^3 + v^3) = A Z u v dx dy with u = X dy and v = Y dx, so no
    Fraction and no gcd is built.
    """
    p = field.characteristic
    if p:
        return (x * x * x + y * y * y - a3 * x * y * z) % p == 0
    dx, dy = x.denominator, y.denominator
    u, v = x.numerator * dy, y.numerator * dx
    return a3.denominator * z.denominator * (u * u * u + v * v * v) == a3.numerator * z.numerator * u * v * dx * dy


def _collinear_vanishes(field, x1, x2, x3, y1, y2, y3) -> bool:
    """True iff x1 x2 x3 + y1 y2 y3 = 0 for stored values.

    Over F_p it is one reduction mod p.  Over Q, with x = X/dx and y = Y/dy,
    the sum times dx1 dx2 dx3 dy1 dy2 dy3 is compared on ints:
    X1 X2 X3 dy1 dy2 dy3 + Y1 Y2 Y3 dx1 dx2 dx3 = 0, so no Fraction is built.
    """
    p = field.characteristic
    if p:
        return (x1 * x2 * x3 + y1 * y2 * y3) % p == 0
    dx, dy = x1.denominator * x2.denominator * x3.denominator, y1.denominator * y2.denominator * y3.denominator
    return x1.numerator * x2.numerator * x3.numerator * dy + y1.numerator * y2.numerator * y3.numerator * dx == 0


def _ring_operation(combine):
    """The operator method that combines the stored values and reduces the result.

    An element of the same field is read directly; any other operand goes
    through `_coerced`, which raises MixedFields or takes an int or Fraction.
    """

    def method(self, other):
        field = self.field
        if type(other) is FieldElement and other.field is field:
            v = other.value
        else:
            v = self._coerced(other)
            if v is None:
                return NotImplemented
        p = field.characteristic
        raw = combine(self.value, v)
        if p:
            raw %= p
            if field._elements:
                return field._elements[raw]
        return FieldElement(field, raw)

    return method


class FieldElement:
    """An immutable exact value in a fixed base field.

    Elements of distinct fields never mix: any binary operation across
    fields raises MixedFields.  Over F_p with p <= ENUMERATION_BOUND one
    element per residue is stored and returned, so an element is shared:
    `field` and `value` are assigned in `__init__` and never after.  Two
    elements are equal, and hash alike, when their fields and values are,
    stored or not.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: "Field", value):
        self.field = field
        self.value = value

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.value == 0

    def is_one(self) -> bool:
        return self.value == 1

    # -- arithmetic ---------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise MixedFields(
                    f"cannot combine elements of {self.field} and {other.field}"
                )
            return other.value
        try:
            return self.field._raw(other)
        except TypeError:
            return None

    __add__ = __radd__ = _ring_operation(operator.add)
    __sub__ = _ring_operation(operator.sub)
    __rsub__ = _ring_operation(lambda value, other: other - value)
    __mul__ = __rmul__ = _ring_operation(operator.mul)

    def __truediv__(self, other):
        v = self._coerced(other)
        if v is None:
            return NotImplemented
        return _quotient(self.field, self.value, v)

    def __rtruediv__(self, other):
        v = self._coerced(other)
        if v is None:
            return NotImplemented
        return _quotient(self.field, v, self.value)

    def __neg__(self):
        return self.field.zero - self

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        v, p = self.value, self.field.characteristic
        return self.field.element(pow(v, exponent, p) if p else v**exponent)

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; raises DivisionByZero on the zero element."""
        if self.value == 0:
            raise DivisionByZero("the zero element has no multiplicative inverse")
        return _quotient(self.field, 1, self.value)

    # -- identity -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self):
        try:
            return str(self.value)
        except ValueError as exc:  # the one place an element becomes text
            limit = sys.get_int_max_str_digits()
            raise BadLiteral(f"cannot print a value of over {limit} digits, the integer digit limit") from exc

    __repr__ = __str__


class Field:
    """Common interface of the supported exact base fields; each field is one object."""

    characteristic: int
    # A prime field's elements by residue when p <= ENUMERATION_BOUND; empty, so built fresh, otherwise.
    _elements: "tuple[FieldElement, ...]" = ()

    def _with_constants(self, elements: "tuple[FieldElement, ...]" = ()) -> "Field":
        """This field, with its stored elements and its `zero` and `one` set once."""
        self._elements = elements
        self.zero = self.element(0)
        self.one = self.element(1)
        return self

    def element(self, value) -> FieldElement:
        """One of this field's own elements, or the element of a plain value.

        A plain value is an int over F_p, an int or Fraction over Q; `_raw`
        gives its stored value and raises TypeError for any other value, and
        another field's element raises MixedFields.
        """
        if isinstance(value, FieldElement):
            if value.field != self:
                raise MixedFields(f"{value!r} does not belong to {self}")
            return value
        raw = self._raw(value)
        return self._elements[raw] if self._elements else FieldElement(self, raw)

    def epsilon_roots(self):
        """Both roots of e^2 - e + 1 = 0 in this field, or None if there are none.

        The roots, when present, are the parameters of the two extra points
        at infinity; they satisfy e^3 = -1 and multiply to 1.  They are the
        primitive sixth roots of unity -w and -w^2, w a primitive cube root
        of unity; `has_unique_cube_root` says when there are none, over Q
        always.
        """
        if self.has_unique_cube_root():
            return None
        p = self.characteristic
        g = 2
        while (w := pow(g, (p - 1) // 3, p)) == 1:
            g += 1
        return tuple(self.element(root) for root in sorted((-w % p, -w * w % p)))

    def has_unique_cube_root(self) -> bool:
        """True iff -1 is the only root of x^3 + 1 = 0 in this field.

        x^3 + 1 = (x + 1)(x^2 - x + 1), and the other roots are the primitive
        sixth roots of unity.  F_p* is cyclic of order p - 1, so it holds one
        exactly when 3 divides p - 1 (p != 2, 3); Q and F_2 hold none.
        """
        return self.characteristic % 3 != 1

    def __reduce__(self):
        return (field_from_spec, (self.spec_string(),))

    def __str__(self):
        return self.spec_string()


class Rationals(Field):
    """The field of rational numbers with exact Fraction arithmetic; one instance."""

    characteristic = 0

    def __new__(cls):
        return _RATIONALS

    def _raw(self, value):
        if type(value) is Fraction:  # immutable and already in lowest terms
            return value
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise TypeError(f"cannot build a rational from {value!r}")

    def from_literal(self, text: str) -> FieldElement:
        text = text.strip()
        if not _RATIONAL_LITERAL.match(text):
            raise BadLiteral(f"bad rational literal {text!r}; expected <int> or <int>/<int>")
        try:
            return FieldElement(self, Fraction(_within_digit_limit(text).replace(" ", "")))
        except ZeroDivisionError as exc:
            raise BadLiteral(f"zero denominator in literal {text!r}") from exc

    def random_element(self, rng) -> FieldElement:
        return FieldElement(self, Fraction(rng.randint(-99, 99), rng.randint(1, 40)))

    def spec_string(self) -> str:
        return "q"

    def __repr__(self):
        return "Rationals()"


class PrimeField(Field):
    """The prime field F_p, p prime, p != 3 and p < MILLER_RABIN_BOUND; one live instance per p."""

    def __new__(cls, p: int):
        try:
            p = operator.index(p)
        except TypeError:
            raise BadLiteral(f"modulus must be an int, got {p!r}") from None
        with _PRIME_FIELDS_LOCK:
            field = _PRIME_FIELDS.get(p)
            if field is None:
                if p == 3:
                    raise BadLiteral("characteristic 3 is rejected: the folium cubic degenerates")
                if p < 2:
                    raise BadLiteral(f"modulus must be a prime >= 2, got {p}")
                if not is_prime(p):
                    raise BadLiteral(f"{p} is not prime")
                field = super().__new__(cls)
                field.p = field.characteristic = p
                elements = tuple(FieldElement(field, r) for r in range(p)) if p <= ENUMERATION_BOUND else ()
                _PRIME_FIELDS[p] = field._with_constants(elements)
            return field

    def _raw(self, value):
        if isinstance(value, int):
            return value % self.p
        raise TypeError(f"cannot build a residue mod {self.p} from {value!r}")

    def from_literal(self, text: str) -> FieldElement:
        text = text.strip()
        if not _INTEGER_LITERAL.match(text):
            raise BadLiteral(f"bad residue literal {text!r}; expected <int>")
        return self.element(int(_within_digit_limit(text)))

    def random_element(self, rng) -> FieldElement:
        return self.element(rng.randrange(self.p))

    def spec_string(self) -> str:
        return f"fp:{self.p}"

    def __repr__(self):
        return f"PrimeField({self.p})"


_RATIONALS = object.__new__(Rationals)._with_constants()
# The live prime fields by modulus; an entry goes when its field is collected.
_PRIME_FIELDS = weakref.WeakValueDictionary()
_PRIME_FIELDS_LOCK = threading.Lock()


def field_from_spec(spec: str) -> Field:
    """Parse the CLI field grammar: `q` for the rationals, `fp:<p>` for F_p."""
    spec = spec.strip().lower()
    if spec == "q":
        return Rationals()
    if spec.startswith("fp:"):
        tail = spec[3:]
        if not tail.isdecimal():  # isdigit would admit '²', which int() refuses
            raise BadLiteral(f"bad field spec {spec!r}; expected fp:<prime>")
        return PrimeField(int(_within_digit_limit(tail)))
    raise BadLiteral(f"bad field spec {spec!r}; expected q or fp:<prime>")
