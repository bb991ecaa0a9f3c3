"""The supported coordinate range of the indexes (``coordinate_bound``).

Large finite coordinates used to crash the build: areas overflowed to
``inf`` and ``inf - inf`` made ChooseSubtree's keys NaN (5-d near 1e70,
16-d near 1e25), and a squared centre distance in forced reinsertion
raised ``OverflowError`` (2-d near 1e160).  Inserts beyond the bound are
now refused with the same ``ValueError`` as NaN or infinite coordinates,
and points just inside it build a valid, searchable tree.  The STR and
Hilbert bulk loaders and the SS-/SR-tree inserts enforce the same bound.
"""

import math
import random

import pytest

from repro.datasets import uniform
from repro.extensions.srtree import SRTree
from repro.extensions.sstree import SSTree
from repro.geometry import coordinate_bound
from repro.rtree import (
    RStarTree,
    check_invariants,
    hilbert_bulk_load,
    str_bulk_load,
)


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


def _bulk(loader):
    def build(points, dims):
        return loader([(p, oid) for oid, p in enumerate(points)], dims, 8)

    return build


def _incremental(cls):
    def build(points, dims):
        tree = cls(dims, max_entries=8)
        for oid, point in enumerate(points):
            tree.insert(point, oid)
        return tree

    return build


#: Every other way into an index: these used to accept points beyond the
#: bound (STR silently answered ``inf`` distances, the SS-tree failed
#: mid-build on an infinite radius, the SR-tree raised OverflowError).
ENTRY_POINTS = {
    "str": _bulk(str_bulk_load),
    "hilbert": _bulk(hilbert_bulk_load),
    "sstree": _incremental(SSTree),
    "srtree": _incremental(SRTree),
}


@pytest.mark.parametrize("cls", [SSTree, SRTree])
def test_incremental_rejection_leaves_the_tree_unchanged(cls):
    tree = cls(2, max_entries=8)
    tree.insert((0.25, 0.5), 0)
    tree.insert((0.75, 0.5), 1)
    before = sorted(tree.iter_points())
    with pytest.raises(ValueError, match="supported range"):
        tree.insert((-1e160, 0.0), 9)
    assert len(tree) == 2
    assert sorted(tree.iter_points()) == before
    tree.insert((0.5, 0.5), 2)
    assert tree.knn((0.5, 0.5), 1)[0][2] == 2


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
class TestOtherEntryPoints:
    def test_overflowing_points_are_rejected(self, name):
        points = [[c * 1e160 for c in p] for p in uniform(50, 2, seed=1)]
        with pytest.raises(ValueError, match="supported range"):
            ENTRY_POINTS[name](points, 2)

    def test_bound_itself_is_accepted(self, name):
        bound = coordinate_bound(3)
        build = ENTRY_POINTS[name]
        build([(bound, -bound, 0.0), (0.0, 0.0, 0.0)], 3)
        with pytest.raises(ValueError, match="supported range"):
            build([(math.nextafter(bound, math.inf), 0.0, 0.0)], 3)

    @pytest.mark.parametrize("dims", [2, 5, 16])
    def test_points_just_inside_the_bound_answer_exactly(self, name, dims):
        bound = coordinate_bound(dims) * 0.999
        rng = random.Random(dims)
        points = [
            tuple(rng.uniform(-bound, bound) for _ in range(dims))
            for _ in range(200)
        ]
        tree = ENTRY_POINTS[name](points, dims)
        query = points[7]
        answers = tree.knn(query, 10)
        assert answers[0][1:] == (query, 7)
        assert answers[0][0] == 0.0
        assert all(math.isfinite(d) for d, _, _ in answers)
        expected = sorted(
            (math.dist(query, p), oid) for oid, p in enumerate(points)
        )[:10]
        assert [oid for _, _, oid in answers] == [oid for _, oid in expected]
