"""Domain errors shared across the package.

Every error a caller can trigger through the public surface derives from
FoliumError, so the CLI can map the whole family to one exit code.
"""


class FoliumError(Exception):
    """Base class for all domain errors raised by this package."""


class BadLiteral(FoliumError, ValueError):
    """A caller's literal, field spec, modulus or parameter is malformed or out of range,
    or a value is too large to print or plot."""


class MixedFields(FoliumError):
    """Two values from distinct base fields met in one operation."""


class DivisionByZero(FoliumError, ZeroDivisionError):
    """Division or inversion of the zero element."""


class FieldTooLargeForScan(FoliumError):
    """An exhaustive scan was requested above the desk-scale bound."""


class NotOnCurve(FoliumError):
    """A point that does not satisfy the cubic was passed where a curve point is required."""


class ParameterAtInfinity(FoliumError):
    """The affine parametrization was evaluated at a parameter with t^3 = -1."""


class PointAtInfinity(FoliumError):
    """An affine-only operation received a point with z = 0."""


class OriginNotInGroup(FoliumError):
    """The node (0 : 0 : 1) was passed to a construction that excludes it."""


# The geometric constructions exclude the node for the same reason the
# multiplicative laws do; the two names refer to one condition.
OriginNotAllowed = OriginNotInGroup


class FieldLacksUniqueCubeRoot(FoliumError):
    """The affine exotic laws need -1 to be the only cube root of -1."""


class DivisionByZeroPoint(FoliumError):
    """Multiplicative inversion or division by the node under the curve-as-field structure."""


class CoincidentPoints(FoliumError):
    """Two distinct points were required to span a line."""


class SingularPoint(FoliumError):
    """No tangent line exists at the singular node."""


class LineThroughOrigin(FoliumError):
    """The slope-cubic construction needs a line avoiding the node."""


class VertexNotAllowed(FoliumError):
    """The perpendicularity test excludes the vertex."""


class UnorderedField(FoliumError):
    """An order-dependent operation was invoked over a finite field."""


class UnknownSuite(FoliumError):
    """The verification runner received an unrecognized suite name."""


class DegenerateRange(FoliumError):
    """A plot was requested over an empty or under-sampled parameter range."""


class FileWriteError(FoliumError):
    """Plot output could not be written to the requested path."""
