"""Straightforward reference versions of the R*-tree insertion routines.

These are the direct transcriptions the optimised code in
:mod:`repro.rtree.split` and :mod:`repro.rtree.tree` replaced: every
candidate distribution is re-unioned with :meth:`Rect.union_of`, and
ChooseSubtree recomputes enlargement and area wherever it needs them.
They exist only as test oracles — the differential tests assert that the
optimised routines pick exactly the same groups and children.
"""

from __future__ import annotations

from typing import List

from repro.geometry.rect import Rect


def _bounding(entries, rect_of) -> Rect:
    return Rect.union_of(rect_of(e) for e in entries)


def _axis_sorts(entries, axis, rect_of):
    yield sorted(entries, key=lambda e: (rect_of(e).low[axis],
                                         rect_of(e).high[axis]))
    yield sorted(entries, key=lambda e: (rect_of(e).high[axis],
                                         rect_of(e).low[axis]))


def _distributions(sorted_entries, min_fill):
    total = len(sorted_entries)
    for split_at in range(min_fill, total - min_fill + 1):
        yield sorted_entries[:split_at], sorted_entries[split_at:]


def rstar_split(entries, min_fill, rect_of):
    """The R* topological split: ChooseSplitAxis, then ChooseSplitIndex."""
    entries = list(entries)
    dims = rect_of(entries[0]).dims

    best_axis = -1
    best_margin_sum = float("inf")
    for axis in range(dims):
        margin_sum = 0.0
        for sorted_entries in _axis_sorts(entries, axis, rect_of):
            for group1, group2 in _distributions(sorted_entries, min_fill):
                margin_sum += (
                    _bounding(group1, rect_of).margin()
                    + _bounding(group2, rect_of).margin()
                )
        if margin_sum < best_margin_sum:
            best_margin_sum = margin_sum
            best_axis = axis

    best_groups = ([], [])
    best_key = (float("inf"), float("inf"))
    for sorted_entries in _axis_sorts(entries, best_axis, rect_of):
        for group1, group2 in _distributions(sorted_entries, min_fill):
            bb1 = _bounding(group1, rect_of)
            bb2 = _bounding(group2, rect_of)
            key = (bb1.intersection_area(bb2), bb1.area() + bb2.area())
            if key < best_key:
                best_key = key
                best_groups = (list(group1), list(group2))
    return best_groups


def pick_internal_child(node, rect):
    """Least area enlargement, ties by least area."""
    best = None
    best_key = (float("inf"), float("inf"))
    for child in node.entries:
        area = child.mbr.area()
        key = (child.mbr.enlargement(rect), area)
        if key < best_key:
            best_key = key
            best = child
    return best


def pick_leaf_child(node, rect, cut=32):
    """Least overlap enlargement among the *cut* least-enlarged children."""
    children: List = node.entries
    candidates = sorted(
        children, key=lambda c: (c.mbr.enlargement(rect), c.mbr.area())
    )[:cut]
    dims = range(rect.dims)
    bounds = [(other.mbr.low, other.mbr.high, other) for other in children]

    best = None
    best_key = (float("inf"), float("inf"), float("inf"))
    for child in candidates:
        c_lo = child.mbr.low
        c_hi = child.mbr.high
        r_lo = rect.low
        r_hi = rect.high
        e_lo = tuple(a if a < b else b for a, b in zip(c_lo, r_lo))
        e_hi = tuple(a if a > b else b for a, b in zip(c_hi, r_hi))
        delta = 0.0
        for o_lo, o_hi, other in bounds:
            if other is child:
                continue
            after = 1.0
            for i in dims:
                side = (e_hi[i] if e_hi[i] < o_hi[i] else o_hi[i]) - (
                    e_lo[i] if e_lo[i] > o_lo[i] else o_lo[i]
                )
                if side <= 0.0:
                    after = 0.0
                    break
                after *= side
            if after == 0.0:
                continue
            before = 1.0
            for i in dims:
                side = (c_hi[i] if c_hi[i] < o_hi[i] else o_hi[i]) - (
                    c_lo[i] if c_lo[i] > o_lo[i] else o_lo[i]
                )
                if side <= 0.0:
                    before = 0.0
                    break
                before *= side
            delta += after - before
            if delta > best_key[0]:
                break
        if delta > best_key[0]:
            continue
        key = (delta, child.mbr.enlargement(rect), child.mbr.area())
        if key < best_key:
            best_key = key
            best = child
    return best
