"""Composition laws transported onto the folium.

pbar is a bijection K -> curve, so each law is one field operation moved
through one chart:  P o Q = chart(op(chart^-1(P), chart^-1(Q))).

The laws compose slopes as pairs of ints (n : d), t = n/d, read from a
point with no division (parametrization.py): (y : x), or (x : y) for the
pbarbar laws, and (0 : 1) at the node.  Each field operation is a
polynomial map of the pairs: a product is (n1 n2 : d1 d2), star's is
(-n1 n2 : d1 d2) and a sum is (n1 d2 + n2 d1 : d1 d2); the exotic laws
multiply the shifted slopes tau = t + 1 = (n + d : d) and shift the product
back.  The inverses are (d : n) and (-n : d), and (-n : n + d) for the
exotic laws.  So a law call divides only in the chart that builds its
result, which normalizes the pair (`parametrization._chart_key`) and
scales the point (`fields._pair_coordinates`).

A law is a chart flag, a pair operation, a neutral pair, an inverse and a
domain.  The flag `swap` names the chart: pbar, or pbarbar = sigma . pbar
for projmul2, addwest and westmul, so sigma carries each law onto its
swapped twin.  The domain is the whole curve ("all"), the curve without the
node ("nonzero"), or the affine curve ("affine"), which needs -1 to be the
only cube root of -1, without which the affine charts are not bijections.
The domain is a fact about the chart, so a law hands it to the reader of
its chart: as `_pair_param` reads each operand, it refuses the node of a
"nonzero" law, and a field with epsilon roots, then a point at infinity,
of an "affine" law.  `_pair_point` only builds, since no law can build a
point at infinity.  The exotic laws, southmul and westmul, are the
"affine" ones, so their charts are p_affine and p_affine_prime =
sigma . p_affine, and the shifted slope tau = t + 1 they multiply is never
zero (t != -1).  perp and third_intersection read pbar's slope in the
"nonzero" domain the same way.  Law.invert also refuses the node where
only the nonzero points are units.  The law table LAWS states each law
once: apply_law, law_inverse, law_neutral and the per-law names all look
their row up there when called, so a row patched or wrapped in the table
is seen by every caller.  fieldmul is plain multiplication through pbar,
so the node absorbs (pbar(0 t) = O); with addsouth it makes the curve a
field.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum
from typing import NamedTuple

from .curve import Folium, ProjectivePoint
from .errors import DivisionByZeroPoint
from .parametrization import _pair_param, _pair_point


class LawKind(Enum):
    """The composition laws the curve carries, keyed by their CLI names."""

    PROJ_MUL = "projmul"
    PROJ_MUL2 = "projmul2"
    STAR_MUL = "star"
    ADD_SOUTH = "addsouth"
    ADD_WEST = "addwest"
    SOUTH_MUL = "southmul"
    WEST_MUL = "westmul"
    FIELD_MUL = "fieldmul"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality and spares each LAWS lookup Enum's own __hash__.
    __hash__ = object.__hash__


class Law(NamedTuple):
    """One transported law: P o Q = pair_point(*op(*pair_param(P), *pair_param(Q))), through pbarbar when `swap`."""

    swap: bool  # the chart: pbarbar = sigma . pbar when True, else pbar
    op: Callable  # (n1, d1, n2, d2) -> (n, d)
    neutral: tuple  # the chart's slope pair of the neutral element
    inverse: Callable  # (n, d) -> (n, d)
    domain: str  # the law's own domain: "all", "nonzero" (no node) or "affine"
    units: str | None = None  # the invertible points, when narrower than the domain

    # apply and invert read each operand in turn, and the reader refuses what the domain
    # excludes; the builder refuses nothing.  They call the pair maps by their module-level
    # names, so a wrapper installed on those names sees every call a law makes.
    def apply(self, curve: Folium, p1: ProjectivePoint, p2: ProjectivePoint) -> ProjectivePoint:
        swap, domain = self.swap, self.domain
        n1, d1 = _pair_param(curve, p1, swap, domain)
        n2, d2 = _pair_param(curve, p2, swap, domain)
        return _pair_point(curve, *self.op(n1, d1, n2, d2), swap)

    def invert(self, curve: Folium, point: ProjectivePoint) -> ProjectivePoint:
        n, d = _pair_param(curve, point, self.swap, self.domain)
        if n == 0 and self.units == "nonzero":
            raise DivisionByZeroPoint("the node (0 : 0 : 1) has no multiplicative inverse")
        return _pair_point(curve, *self.inverse(n, d), self.swap)


# The pair forms of t1 t2, -t1 t2, t1 + t2 and (t1 + 1)(t2 + 1) - 1 for t1 = n1/d1 and t2 = n2/d2.
def _product(n1, d1, n2, d2):
    return n1 * n2, d1 * d2


def _negated_product(n1, d1, n2, d2):
    return -n1 * n2, d1 * d2


def _sum(n1, d1, n2, d2):
    return n1 * d2 + n2 * d1, d1 * d2


def _shifted_product(n1, d1, n2, d2):
    d = d1 * d2
    return (n1 + d1) * (n2 + d2) - d, d


# -- the law table --------------------------------------------------------

# The inverses are 1/t, -t and, for the exotic laws, 1/(t + 1) - 1 = -t/(t + 1).
LAWS = {
    LawKind.PROJ_MUL: Law(False, _product, (1, 1), lambda n, d: (d, n), "nonzero"),
    LawKind.PROJ_MUL2: Law(True, _product, (1, 1), lambda n, d: (d, n), "nonzero"),
    LawKind.STAR_MUL: Law(False, _negated_product, (-1, 1), lambda n, d: (d, n), "nonzero"),
    LawKind.ADD_SOUTH: Law(False, _sum, (0, 1), lambda n, d: (-n, d), "all"),
    LawKind.ADD_WEST: Law(True, _sum, (0, 1), lambda n, d: (-n, d), "all"),
    LawKind.SOUTH_MUL: Law(False, _shifted_product, (0, 1), lambda n, d: (-n, n + d), "affine"),
    LawKind.WEST_MUL: Law(True, _shifted_product, (0, 1), lambda n, d: (-n, n + d), "affine"),
    LawKind.FIELD_MUL: Law(False, _product, (1, 1), lambda n, d: (d, n), "all", "nonzero"),
}


def apply_law(curve: Folium, law: LawKind, p1: ProjectivePoint, p2: ProjectivePoint) -> ProjectivePoint:
    """Apply one of the composition laws, enforcing its domain."""
    return LAWS[law].apply(curve, p1, p2)


def law_neutral(curve: Folium, law: LawKind) -> ProjectivePoint:
    """The neutral element of the law (V for the multiplicative laws, I for star, O otherwise)."""
    record = LAWS[law]
    return _pair_point(curve, *record.neutral, record.swap)


def law_inverse(curve: Folium, law: LawKind, point: ProjectivePoint) -> ProjectivePoint:
    """The inverse of a point under the law; domain errors mirror the law's own."""
    return LAWS[law].invert(curve, point)


# -- the laws by name -----------------------------------------------------


def proj_mul(curve: Folium, p1: ProjectivePoint, p2: ProjectivePoint) -> ProjectivePoint:
    """The multiplicative law with neutral V = pbar(1); node excluded."""
    return LAWS[LawKind.PROJ_MUL].apply(curve, p1, p2)


def proj_mul2(curve: Folium, p1: ProjectivePoint, p2: ProjectivePoint) -> ProjectivePoint:
    """The multiplicative transport through pbarbar; coincides with proj_mul pointwise."""
    return LAWS[LawKind.PROJ_MUL2].apply(curve, p1, p2)


def proj_inv(curve: Folium, point: ProjectivePoint) -> ProjectivePoint:
    """Inverse under proj_mul: the coordinate swap (x : y : z) -> (y : x : z)."""
    return LAWS[LawKind.PROJ_MUL].invert(curve, point)


def star_mul(curve: Folium, p1: ProjectivePoint, p2: ProjectivePoint) -> ProjectivePoint:
    """The derived law pbar(t) * pbar(t') = pbar(-t t') with neutral I."""
    return LAWS[LawKind.STAR_MUL].apply(curve, p1, p2)


def perp(curve: Folium, point: ProjectivePoint) -> ProjectivePoint:
    """The involution P -> pbar(-1/t); exchanges V and I."""
    n, d = _pair_param(curve, point, False, "nonzero")
    return _pair_point(curve, -d, n)


def add_south(curve: Folium, p1: ProjectivePoint, p2: ProjectivePoint) -> ProjectivePoint:
    """The additive law pbar(t) + pbar(t') = pbar(t + t'); total, neutral O."""
    return LAWS[LawKind.ADD_SOUTH].apply(curve, p1, p2)


def neg(curve: Folium, point: ProjectivePoint) -> ProjectivePoint:
    """Additive inverse pbar(-t); the same map serves add_south and add_west."""
    return LAWS[LawKind.ADD_SOUTH].invert(curve, point)


def add_west(curve: Folium, p1: ProjectivePoint, p2: ProjectivePoint) -> ProjectivePoint:
    """The additive transport through pbarbar; total, neutral O, distinct from add_south."""
    return LAWS[LawKind.ADD_WEST].apply(curve, p1, p2)


def south_mul(curve: Folium, p1: ProjectivePoint, p2: ProjectivePoint) -> ProjectivePoint:
    """The affine exotic law: transport of (K\\{0}, *) through p_affine . alpha."""
    return LAWS[LawKind.SOUTH_MUL].apply(curve, p1, p2)


def west_mul(curve: Folium, p1: ProjectivePoint, p2: ProjectivePoint) -> ProjectivePoint:
    """The swapped affine exotic law: transport through p_affine_prime . alpha."""
    return LAWS[LawKind.WEST_MUL].apply(curve, p1, p2)


# -- the curve as a field ----------------------------------------------


def folium_add(curve: Folium, p1: ProjectivePoint, p2: ProjectivePoint) -> ProjectivePoint:
    """Field addition on the curve: add_south."""
    return LAWS[LawKind.ADD_SOUTH].apply(curve, p1, p2)


def folium_mul(curve: Folium, p1: ProjectivePoint, p2: ProjectivePoint) -> ProjectivePoint:
    """Field multiplication: proj_mul extended by letting the node absorb."""
    return LAWS[LawKind.FIELD_MUL].apply(curve, p1, p2)


def folium_inv(curve: Folium, point: ProjectivePoint) -> ProjectivePoint:
    """Field inversion; the node has none."""
    return LAWS[LawKind.FIELD_MUL].invert(curve, point)


def folium_div(curve: Folium, p1: ProjectivePoint, p2: ProjectivePoint) -> ProjectivePoint:
    """Field division p1 / p2; dividing by the node is an error."""
    return folium_mul(curve, p1, folium_inv(curve, p2))
