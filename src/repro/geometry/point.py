"""Point helpers.

Points are represented as plain tuples of floats.  Keeping them as tuples
(rather than a wrapper class) makes them hashable, comparable and cheap to
create, which matters because k-NN search manipulates millions of them.
"""

from __future__ import annotations

import math
import sys
from typing import Optional, Sequence, Tuple

#: Type alias used throughout the library for an n-dimensional point.
Point = Tuple[float, ...]


def validate_point(
    point: Sequence[float], dims: int = 0, bound: Optional[float] = None
) -> Point:
    """Return *point* as a tuple of floats, checking basic sanity.

    :param point: any sequence of numbers.
    :param dims: if non-zero, the required dimensionality.
    :param bound: if given, the largest coordinate magnitude accepted —
        the indexes pass :func:`coordinate_bound` here.
    :raises ValueError: if the point is empty, has the wrong dimensionality,
        contains non-finite coordinates or exceeds *bound*.
    """
    coords = tuple(float(c) for c in point)
    if not coords:
        raise ValueError("a point needs at least one coordinate")
    if dims and len(coords) != dims:
        raise ValueError(
            f"expected a {dims}-dimensional point, got {len(coords)} coordinates"
        )
    if not all(math.isfinite(c) for c in coords):
        raise ValueError(f"point has non-finite coordinates: {coords}")
    if bound is not None and max(map(abs, coords)) > bound:
        raise ValueError(
            f"point coordinates exceed the supported range "
            f"±{bound:.6g} for {len(coords)}-d points: {coords}"
        )
    return coords


#: Factor kept between the largest area or squared distance and the float
#: maximum, so that sums of up to this many of them — split keys, overlap
#: enlargements summed over a node's children, distance accumulations —
#: stay finite too.
SUM_HEADROOM = 2.0 ** 32


def coordinate_bound(dims: int) -> float:
    """Largest coordinate magnitude an index over *dims*-d points accepts.

    With every coordinate in ``[-B, B]`` a side length or a coordinate
    difference is at most ``2B``, so an area (a product of *dims* sides)
    is at most ``(2B) ** dims`` and a squared distance at most
    ``dims * (2B) ** 2``.  ``B`` is the largest value for which both,
    times :data:`SUM_HEADROOM`, stay below ``sys.float_info.max``.
    Beyond it an area can overflow to ``inf``, where ``inf - inf`` turns
    the R*-tree's ChooseSubtree keys into NaN, and a squared distance
    can raise ``OverflowError``.  The bound is about ``5.1e148`` in 2-d,
    ``2.3e59`` in 5-d and ``2.2e18`` in 16-d.
    """
    if dims < 1:
        raise ValueError(f"dimensionality must be positive, got {dims}")
    # The extra halving absorbs the rounding of the roots.
    limit = sys.float_info.max / SUM_HEADROOM / 2.0
    return min(limit ** (1.0 / dims), math.sqrt(limit / dims)) / 2.0


def squared_euclidean(a: Sequence[float], b: Sequence[float]) -> float:
    """Squared Euclidean distance between two points of equal dimension.

    Squared distances order identically to true distances, so the search
    algorithms compare squared values and only take the square root when a
    distance is reported to the user.
    """
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum((x - y) * (x - y) for x, y in zip(a, b))


def euclidean(a: Sequence[float], b: Sequence[float]) -> float:
    """Euclidean distance between two points of equal dimension."""
    return math.sqrt(squared_euclidean(a, b))


def midpoint(a: Sequence[float], b: Sequence[float]) -> Point:
    """The point halfway between *a* and *b*."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return tuple((x + y) / 2.0 for x, y in zip(a, b))
