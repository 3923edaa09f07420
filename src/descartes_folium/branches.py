"""Branch decomposition of the real affine folium by parameter intervals.

Over the rationals the affine curve splits into the south branch (parameter
in (-1, 1)), the west branch (|parameter| > 1), the vertex at parameter 1
and the node at parameter 0; the coordinate swap exchanges the two branch
interiors and fixes the vertex and the node.
"""

from __future__ import annotations

from enum import Enum

from .curve import Folium, ProjectivePoint, _require_affine
from .errors import UnorderedField
from .parametrization import pbar_inv


class BranchLabel(Enum):
    SOUTH_INTERIOR = "south-interior"
    WEST_INTERIOR = "west-interior"
    VERTEX = "vertex"
    NODE = "node"


def classify_branch(curve: Folium, point: ProjectivePoint) -> BranchLabel:
    """Label an affine rational curve point by the interval its parameter falls in."""
    if curve.field.characteristic != 0:
        raise UnorderedField("branch classification needs the ordered field of rationals")
    t = pbar_inv(curve, _require_affine(point)).value
    if t == 0:
        return BranchLabel.NODE
    if t == 1:
        return BranchLabel.VERTEX
    if -1 < t < 1:
        return BranchLabel.SOUTH_INTERIOR
    return BranchLabel.WEST_INTERIOR
