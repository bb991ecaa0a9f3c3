"""The batched leaf offer of :func:`repro.core.scan.offer_leaf`.

Once the neighbor list is full, the leaf offer drops every row farther
than the current k-th distance before the heap sees it.  It must admit
exactly what offering every entry in order through
:meth:`~repro.core.results.NeighborList.offer_computed` admits, on both
the pointer and the flat layout, whatever the ties and duplicates.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import NeighborList
from repro.core.scan import offer_leaf
from repro.geometry.point import squared_euclidean
from repro.rtree import RStarTree
from repro.rtree.flat import flatten

QUERY = (0.0, 0.0)

#: A coarse integer grid: duplicate points and equal distances are common.
GRID = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
    lambda p: (float(p[0]), float(p[1]))
)


def leaves(points, oids):
    """One pointer leaf and its flat twin holding *points* / *oids*."""
    tree = RStarTree(2, max_entries=max(4, len(points)))
    for point, oid in zip(points, oids):
        tree.insert(point, oid)
    assert tree.root.is_leaf
    return tree.root, flatten(tree).root


def leaf_rows(leaf):
    """``(point, oid)`` rows of *leaf* in entry order."""
    leaf_data = getattr(leaf, "leaf_data", None)
    if leaf_data is None:
        return [(entry.point, entry.oid) for entry in leaf.entries]
    oids, points = leaf_data
    return [(tuple(p), oid) for p, oid in zip(points.tolist(), oids.tolist())]


def preloaded(k, preload):
    neighbors = NeighborList(QUERY, k)
    for point, oid in preload:
        neighbors.offer_computed(squared_euclidean(QUERY, point), point, oid)
    return neighbors


def assert_same_admissions(leaf, k, preload):
    batched = preloaded(k, preload)
    offer_leaf(QUERY, leaf, batched)
    sequential = preloaded(k, preload)
    for point, oid in leaf_rows(leaf):
        sequential.offer_computed(
            squared_euclidean(QUERY, point), point, oid
        )
    assert batched.as_sorted() == sequential.as_sorted()
    assert batched.kth_distance_sq() == sequential.kth_distance_sq()
    return batched


@st.composite
def scenarios(draw):
    n_leaf = draw(st.integers(1, 24))
    n_pre = draw(st.integers(0, 12))
    oids = draw(
        st.lists(
            st.integers(0, 99),
            min_size=n_leaf + n_pre,
            max_size=n_leaf + n_pre,
            unique=True,
        )
    )
    leaf_points = draw(st.lists(GRID, min_size=n_leaf, max_size=n_leaf))
    pre_points = draw(st.lists(GRID, min_size=n_pre, max_size=n_pre))
    # Up to twice the leaf: k larger than the leaf (and than everything
    # offered) keeps the list from filling at all.
    k = draw(st.integers(1, 2 * n_leaf + n_pre))
    preload = list(zip(pre_points, oids[n_leaf:]))
    return leaf_points, oids[:n_leaf], preload, k


class TestLeafPrefilter:
    @settings(max_examples=300, deadline=None)
    @given(scenarios())
    def test_admits_what_sequential_offers_admit(self, scenario):
        leaf_points, leaf_oids, preload, k = scenario
        pointer, flat = leaves(leaf_points, leaf_oids)
        assert_same_admissions(flat, k, preload)
        answers = assert_same_admissions(pointer, k, preload).as_sorted()
        # Pointer leaves hand the heap each entry's own point tuple.
        own = {entry.oid: entry.point for entry in pointer.entries}
        for answer in answers:
            if answer.oid in own:
                assert answer.point is own[answer.oid]

    def test_ties_at_the_kth_distance_break_on_oid(self):
        # The list is full with the k-th answer at distance 1, oid 5.
        preload = [((0.0, 0.0), 50), ((1.0, 0.0), 5)]
        pointer, flat = leaves(
            [(0.0, 1.0), (-1.0, 0.0), (0.0, 2.0), (0.0, -1.0)], [7, 3, 1, 4]
        )
        for leaf in (pointer, flat):
            answers = assert_same_admissions(leaf, 2, preload).as_sorted()
            # oid 3 ties the k-th distance with a smaller oid and enters;
            # oid 4 and oid 7 tie with larger oids than the winner.
            assert [a.oid for a in answers] == [50, 3]

    def test_k_larger_than_the_leaf_takes_every_entry(self):
        points = [(1.0, 1.0), (1.0, 1.0), (2.0, 0.0)]
        pointer, flat = leaves(points, [9, 2, 4])
        for leaf in (pointer, flat):
            answers = assert_same_admissions(leaf, 10, []).as_sorted()
            assert [a.oid for a in answers] == [2, 9, 4]

    def test_only_admissible_rows_reach_the_heap(self, monkeypatch):
        preload = [((0.0, 1.0), 10), ((1.0, 1.0), 11)]
        points = [(3.0, 3.0), (1.0, 0.0), (1.0, 1.0), (2.0, 2.0), (0.0, 0.0)]
        pointer, _ = leaves(points, [0, 1, 2, 3, 4])
        neighbors = preloaded(2, preload)
        offered = []
        original = NeighborList.offer_computed

        def spy(self, dist_sq, point, oid):
            offered.append(oid)
            return original(self, dist_sq, point, oid)

        monkeypatch.setattr(NeighborList, "offer_computed", spy)
        offer_leaf(QUERY, pointer, neighbors)
        # k-th distance² is 2 on entry: rows at 18 and 8 never get offered.
        assert sorted(offered) == [1, 2, 4]
        assert [a.oid for a in neighbors.as_sorted()] == [4, 1]
