"""Differential tests: optimised insertion routines vs. the plain versions.

The R* split, both ChooseSubtree rules and ``Node.extend_path`` were
rewritten for speed under the promise that the tree does not change.
These tests feed the optimised routines and the straightforward
reference versions in ``_reference.py`` adversarial inputs — duplicate
points, zero-extent boxes, signed zeros, exact ties in enlargement, area
and overlap, rectangle (internal-node) entries and fan-outs above the
32-candidate cut — and require identical groups and identical children.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.rect import Rect
from repro.rtree.node import Node
from repro.rtree.split import RStarSplit
from repro.rtree.tree import RStarTree

from tests.rtree import _reference

#: A coarse grid (with both signed zeros) so ties are the rule, not luck.
GRID = [-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5]


@st.composite
def rects(draw, dims, kind=None):
    """A rectangle on the grid: a point, a box, or either."""
    kind = kind or draw(st.sampled_from(["point", "box"]))
    low = [draw(st.sampled_from(GRID)) for _ in range(dims)]
    if kind == "point":
        return Rect(low, low)
    high = [
        lo + draw(st.sampled_from([0.0, 0.0, 0.25, 0.5, 2.0])) for lo in low
    ]
    return Rect(low, high)


@st.composite
def rect_sets(draw, min_size, max_size):
    """``(dims, rects)`` with every adversarial shape represented."""
    dims = draw(st.integers(1, 4))
    count = draw(st.integers(min_size, max_size))
    shape = draw(st.sampled_from(["duplicates", "points", "boxes", "mixed"]))
    if shape == "duplicates":
        one = draw(rects(dims))
        return dims, [one] * count
    kind = {"points": "point", "boxes": "box", "mixed": None}[shape]
    return dims, [draw(rects(dims, kind)) for _ in range(count)]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), case=rect_sets(2, 48))
def test_rstar_split_matches_reference(data, case):
    _, boxes = case
    min_fill = data.draw(st.integers(1, len(boxes) // 2))
    entries = list(range(len(boxes)))
    got = RStarSplit().split(entries, min_fill, boxes.__getitem__)
    want = _reference.rstar_split(entries, min_fill, boxes.__getitem__)
    assert got == want


def _parent(level, child_boxes):
    parent = Node(10_000, level)
    for page_id, box in enumerate(child_boxes):
        child = Node(page_id, level - 1)
        child.mbr = box
        parent.add(child)
    return parent


@settings(max_examples=400, deadline=None)
@given(data=st.data(), case=rect_sets(1, 45))
def test_choose_subtree_matches_reference(data, case):
    dims, boxes = case
    target = data.draw(rects(dims))
    tree = RStarTree(dims, max_entries=64)

    leaf_parent = _parent(1, boxes)
    got = tree._pick_leaf_child(leaf_parent, target)
    assert got is _reference.pick_leaf_child(leaf_parent, target)

    upper = _parent(2, boxes)
    got = RStarTree._pick_internal_child(upper, target)
    assert got is _reference.pick_internal_child(upper, target)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), case=rect_sets(1, 4))
def test_extend_path_mbrs_match_union_bit_for_bit(data, case):
    dims, boxes = case
    added = data.draw(rects(dims))
    # A chain leaf -> ... -> root whose MBRs grow toward the root, the
    # shape extend_path walks; the first node may have no MBR yet.
    chain = []
    mbr = None if data.draw(st.booleans()) else boxes[0]
    for level, box in enumerate(boxes):
        node = Node(level, level)
        node.mbr = mbr
        if chain:
            chain[-1].parent = node
        chain.append(node)
        mbr = box if mbr is None else mbr.union(box)

    expected = [
        added if node.mbr is None else node.mbr.union(added) for node in chain
    ]
    counts = [node.object_count for node in chain]
    chain[0].extend_path(added, 3)
    assert [repr(node.mbr) for node in chain] == [repr(r) for r in expected]
    assert [node.object_count for node in chain] == [c + 3 for c in counts]


def test_candidate_cut_decides_the_leaf_choice():
    """35 children where only the 32nd least-enlarged one wins.

    Inserting the origin: 31 small boxes at y in [1, 1.1] enlarge least
    but then overlap a long strip; the 32nd (``near``) overlaps only a
    little; the 33rd (``free``) would overlap nothing but lies beyond
    the cut; the strip and a tall box enlarge most of all.
    """
    boxes = [
        Rect((x, 1.0), (x + 0.1, 1.1))
        for x in (0.1 + 0.01 * i for i in range(31))
    ]
    near = Rect((3.9, 0.1), (4.0, 0.2))
    free = Rect((4.9, -0.2), (5.0, -0.1))
    strip = Rect((0.001, 0.5), (100.0, 0.6))
    tall = Rect((1.0, 0.15), (1.1, 100.0))
    boxes += [near, free, strip, tall]
    parent = _parent(1, boxes[::2] + boxes[1::2])
    target = Rect((0.0, 0.0), (0.0, 0.0))

    chosen = RStarTree(2, max_entries=64)._pick_leaf_child(parent, target)
    assert chosen is _reference.pick_leaf_child(parent, target)
    assert chosen.mbr == near
    assert _reference.pick_leaf_child(parent, target, cut=31).mbr != near
    assert _reference.pick_leaf_child(parent, target, cut=33).mbr == free
