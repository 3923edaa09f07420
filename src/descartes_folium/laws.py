"""Composition laws transported onto the folium.

pbar is a bijection K -> curve, so each law is one field operation moved
through one chart:  P o Q = chart(op(chart^-1(P), chart^-1(Q))).

A law is a chart, a field operation, a neutral parameter, an inverse and a
domain.  The charts are pbar, pbarbar, and for the affine exotic laws
p_affine . alpha and p_affine_prime . alpha on tau = t + 1; the operations
are u v, -(u v) and u + v; the inverses are reciprocal and negation.  The
domain is the whole curve ("all"), the curve without the node ("nonzero"),
or the affine curve ("affine"), which needs -1 to be the only cube root of
-1, without which the affine charts are not bijections: Law.param refuses
the node of a "nonzero" law, and Law.require_field a field with epsilon
roots for an "affine" one.  The law table LAWS states each law once:
apply_law, law_inverse, law_neutral, nonzero_param and the per-law names
all look their row up there when called, so a row patched or wrapped in
the table is seen by every caller.  fieldmul is plain multiplication
through pbar, so the node absorbs (pbar(0 t) = O); with addsouth it makes
the curve a field.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from enum import Enum
from typing import NamedTuple

from .curve import Folium, ProjectivePoint, _require_affine
from .errors import (
    DivisionByZeroPoint,
    FieldLacksUniqueCubeRoot,
    OriginNotInGroup,
)
from .fields import FieldElement
from .parametrization import (
    alpha,
    alpha_inv,
    p_affine,
    p_affine_prime,
    pbar,
    pbar_inv,
    pbarbar,
    pbarbar_inv,
)


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


class Chart(NamedTuple):
    """A parametrization K -> curve and its inverse."""

    point: Callable
    param: Callable


class Law(NamedTuple):
    """One transported law: P o Q = chart.point(op(chart.param(P), chart.param(Q)))."""

    chart: Chart
    op: Callable
    neutral: int  # the chart parameter of the neutral element
    inverse: Callable
    domain: str  # the law's own domain: "all", "nonzero" (no node) or "affine"
    units: str | None = None  # the invertible points, when narrower than the domain

    def require_field(self, curve: Folium) -> None:
        if self.domain == "affine" and not curve.field.has_unique_cube_root():
            raise FieldLacksUniqueCubeRoot(
                f"{curve.field} has epsilon roots, so the affine parametrization "
                "is not a bijection onto the affine curve"
            )

    def param(self, curve: Folium, point: ProjectivePoint) -> FieldElement:
        u = self.chart.param(curve, point)
        if self.domain == "nonzero" and u.is_zero():
            raise OriginNotInGroup("the node (0 : 0 : 1) is excluded here")
        return u

    def apply(self, curve: Folium, p1: ProjectivePoint, p2: ProjectivePoint) -> ProjectivePoint:
        self.require_field(curve)
        return self.chart.point(curve, self.op(self.param(curve, p1), self.param(curve, p2)))

    def invert(self, curve: Folium, point: ProjectivePoint) -> ProjectivePoint:
        self.require_field(curve)
        return self.chart.point(curve, self.inverse(self.param(curve, point)))


def _reciprocal(u: FieldElement) -> FieldElement:
    # Parameter 0 is the node; only fieldmul admits it, and it has no inverse there.
    if u.is_zero():
        raise DivisionByZeroPoint("the node (0 : 0 : 1) has no multiplicative inverse")
    return u.inverse()


# The charts call the parametrizations by their module-level names, so a
# wrapper installed on those names sees every call a law makes.
_PBAR = Chart(lambda c, u: pbar(c, u), lambda c, P: pbar_inv(c, P))
_PBARBAR = Chart(lambda c, u: pbarbar(c, u), lambda c, P: pbarbar_inv(c, P))
# t != -1 for affine points, so the shifted parameter tau = t + 1 is never zero.
_SOUTH = Chart(
    lambda c, tau: p_affine(c, alpha(tau)),
    lambda c, P: alpha_inv(pbar_inv(c, _require_affine(P))),
)
_WEST = Chart(
    lambda c, tau: p_affine_prime(c, alpha(tau)),
    lambda c, P: alpha_inv(pbarbar_inv(c, _require_affine(P))),
)

# -- the law table --------------------------------------------------------

LAWS = {
    LawKind.PROJ_MUL: Law(_PBAR, operator.mul, 1, _reciprocal, "nonzero"),
    LawKind.PROJ_MUL2: Law(_PBARBAR, operator.mul, 1, _reciprocal, "nonzero"),
    LawKind.STAR_MUL: Law(_PBAR, lambda u, v: -(u * v), -1, _reciprocal, "nonzero"),
    LawKind.ADD_SOUTH: Law(_PBAR, operator.add, 0, operator.neg, "all"),
    LawKind.ADD_WEST: Law(_PBARBAR, operator.add, 0, operator.neg, "all"),
    LawKind.SOUTH_MUL: Law(_SOUTH, operator.mul, 1, _reciprocal, "affine"),
    LawKind.WEST_MUL: Law(_WEST, operator.mul, 1, _reciprocal, "affine"),
    LawKind.FIELD_MUL: Law(_PBAR, operator.mul, 1, _reciprocal, "all", "nonzero"),
}


def apply_law(curve: Folium, law: LawKind, p1: ProjectivePoint, p2: ProjectivePoint) -> ProjectivePoint:
    """Apply one of the composition laws, enforcing its domain."""
    return LAWS[law].apply(curve, p1, p2)


def law_neutral(curve: Folium, law: LawKind) -> ProjectivePoint:
    """The neutral element of the law (V for the multiplicative laws, I for star, O otherwise)."""
    record = LAWS[law]
    return record.chart.point(curve, record.neutral)


def law_inverse(curve: Folium, law: LawKind, point: ProjectivePoint) -> ProjectivePoint:
    """The inverse of a point under the law; domain errors mirror the law's own."""
    return LAWS[law].invert(curve, point)


# -- the laws by name -----------------------------------------------------


def nonzero_param(curve: Folium, point: ProjectivePoint) -> FieldElement:
    """Slope parameter of a curve point, rejecting the node."""
    return LAWS[LawKind.PROJ_MUL].param(curve, point)


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
    return pbar(curve, -nonzero_param(curve, point).inverse())


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


def south_inv(curve: Folium, point: ProjectivePoint) -> ProjectivePoint:
    """Inverse under south_mul: shifted parameter tau goes to 1/tau."""
    return LAWS[LawKind.SOUTH_MUL].invert(curve, point)


def west_inv(curve: Folium, point: ProjectivePoint) -> ProjectivePoint:
    """Inverse under west_mul."""
    return LAWS[LawKind.WEST_MUL].invert(curve, point)


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
