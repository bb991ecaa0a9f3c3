"""Geometric primitives shared by every index structure in :mod:`repro`.

The module deliberately keeps two representations:

* points are plain tuples of floats (hashable, cheap, dimension-agnostic);
* rectangles are :class:`~repro.geometry.rect.Rect` instances — immutable
  axis-aligned boxes given by their ``low`` and ``high`` corners.

All higher layers (R*-tree, SS-tree, search algorithms) build on these.
"""

from repro.geometry.point import (
    Point,
    coordinate_bound,
    euclidean,
    midpoint,
    squared_euclidean,
    validate_point,
)
from repro.geometry.rect import Rect
from repro.geometry.sphere import Sphere

__all__ = [
    "Point",
    "Rect",
    "Sphere",
    "coordinate_bound",
    "euclidean",
    "midpoint",
    "squared_euclidean",
    "validate_point",
]
