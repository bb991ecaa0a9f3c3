"""The supported coordinate range of the R*-tree (``coordinate_bound``).

Large finite coordinates used to crash the build: areas overflowed to
``inf`` and ``inf - inf`` made ChooseSubtree's keys NaN (5-d near 1e70,
16-d near 1e25), and a squared centre distance in forced reinsertion
raised ``OverflowError`` (2-d near 1e160).  Inserts beyond the bound are
now refused with the same ``ValueError`` as NaN or infinite coordinates,
and points just inside it build a valid, searchable tree.
"""

import math
import random

import pytest

from repro.datasets import uniform
from repro.geometry import coordinate_bound
from repro.rtree import RStarTree, check_invariants


def _build(points, dims, page_size):
    tree = RStarTree(dims, page_size=page_size)
    for oid, point in enumerate(points):
        tree.insert(point, oid)
    return tree


class TestCoordinateBound:
    def test_keeps_areas_and_squared_distances_finite_with_headroom(self):
        for dims in (1, 2, 3, 5, 8, 16, 64):
            side = 2.0 * coordinate_bound(dims)
            assert math.isfinite(side ** dims * 2.0 ** 32)
            assert math.isfinite(dims * side * side * 2.0 ** 32)

    def test_shrinks_with_dimensionality(self):
        bounds = [coordinate_bound(dims) for dims in (2, 3, 5, 8, 16)]
        assert bounds == sorted(bounds, reverse=True)

    def test_rejects_non_positive_dims(self):
        with pytest.raises(ValueError, match="dimensionality"):
            coordinate_bound(0)


class TestOutOfRangeInsert:
    @pytest.mark.parametrize(
        "dims,scale,page_size",
        [
            (5, 1e70, 1024),  # areas overflow: NaN ChooseSubtree keys
            (16, 1e25, 2048),  # the same in 16-d
            (2, 1e160, 1024),  # squared distance overflows in reinsert
        ],
    )
    def test_overflowing_points_are_rejected(self, dims, scale, page_size):
        tree = RStarTree(dims, page_size=page_size)
        points = [[c * scale for c in p] for p in uniform(50, dims, seed=1)]
        with pytest.raises(ValueError, match="supported range"):
            for oid, point in enumerate(points):
                tree.insert(point, oid)
        check_invariants(tree)

    def test_rejection_matches_the_non_finite_contract(self):
        tree = RStarTree(2, max_entries=8)
        tree.insert((0.5, 0.5), 0)
        for bad in ((float("nan"), 0.0), (float("inf"), 0.0), (-1e160, 0.0)):
            with pytest.raises(ValueError):
                tree.insert(bad, 1)
        assert len(tree) == 1
        assert tree.mutations == 1
        check_invariants(tree)

    def test_bound_itself_is_accepted(self):
        bound = coordinate_bound(3)
        tree = RStarTree(3, max_entries=8)
        tree.insert((bound, -bound, 0.0), 0)
        with pytest.raises(ValueError, match="supported range"):
            tree.insert((math.nextafter(bound, math.inf), 0.0, 0.0), 1)


@pytest.mark.parametrize("dims,page_size", [(2, 1024), (5, 1024), (16, 2048)])
def test_points_just_inside_the_bound_build(dims, page_size):
    bound = coordinate_bound(dims) * 0.999
    rng = random.Random(dims)
    points = [
        tuple(rng.uniform(-bound, bound) for _ in range(dims))
        for _ in range(400)
    ]
    tree = _build(points, dims, page_size)
    check_invariants(tree)
    assert tree.height >= 2
    for node in tree.iter_nodes():
        assert math.isfinite(node.mbr.area())
    query = points[7]
    distance, point, oid = tree.knn(query, 3)[0]
    assert (point, oid) == (query, 7)
    assert distance == 0.0
    assert all(math.isfinite(d) for d, _, _ in tree.knn(query, 10))
