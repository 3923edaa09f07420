"""Exact arithmetic on the Descartes folium x^3 + y^3 - 3axy = 0.

The singular cubic is rationally parametrized by the slope of the chord
from its node, and every group structure of the base field transports
through that bijection onto the curve: two multiplicative laws with the
vertex as neutral element, a derived law with the infinite point as neutral
element, two exotic affine laws, two additive laws, and finally a full
field structure in which the node plays zero.  The geometry module realizes
the multiplicative law by chord-tangent constructions and cross-checks it
against the transported form; the verify module bundles exhaustive and
seeded-random property suites over prime fields and the rationals.
"""

from types import ModuleType as _ModuleType

from .branches import BranchLabel, classify_branch
from .curve import Folium, ProjectiveLine, ProjectivePoint, SpecialPoints
from .errors import (
    BadLiteral,
    CoincidentPoints,
    DegenerateRange,
    DivisionByZero,
    DivisionByZeroPoint,
    FieldLacksUniqueCubeRoot,
    FieldTooLargeForScan,
    FileWriteError,
    FoliumError,
    LineThroughOrigin,
    MixedFields,
    NotOnCurve,
    OriginNotAllowed,
    OriginNotInGroup,
    ParameterAtInfinity,
    PointAtInfinity,
    SingularPoint,
    UnknownSuite,
    UnorderedField,
    VertexNotAllowed,
)
from .fields import Field, FieldElement, PrimeField, Rationals, field_from_spec
from .geometry import (
    all_lines,
    chord_or_tangent,
    collinear3,
    geometric_mul,
    geometric_mul_via_vertex,
    line_curve_intersections,
    line_through,
    perpendicular_chord_check,
    slope_cubic,
    slope_cubic_check,
    tangent_at,
    third_intersection,
)
from .laws import (
    LawKind,
    add_south,
    add_west,
    apply_law,
    folium_add,
    folium_div,
    folium_inv,
    folium_mul,
    law_inverse,
    law_neutral,
    neg,
    perp,
    proj_inv,
    proj_mul,
    proj_mul2,
    south_mul,
    star_mul,
    west_mul,
)
from .parametrization import (
    ParamMap,
    alpha,
    alpha_inv,
    p_affine,
    p_affine_prime,
    pbar,
    pbar_inv,
    pbarbar,
    pbarbar_inv,
    sigma,
)

__version__ = "0.1.0"

_LAZY = ("PropertyResult", "run_report", "run_suite")


def __getattr__(name):
    """The verify names load `verify` on first use, so a curve command never imports it."""
    if name in _LAZY:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The public names imported above and the lazy ones, but not the submodules the imports bind.
__all__ = sorted(
    [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
    + [*_LAZY]
)
