"""Node split policies.

The paper's index is an R*-tree, so :class:`RStarSplit` (the topological
split of Beckmann et al.) is the default.  Guttman's quadratic and linear
splits are included for the split-policy ablation bench and to support the
plain-R-tree baseline configuration.

A policy works on abstract *entries*: anything for which the caller can
supply a rectangle via ``rect_of``.  This lets the same code split leaf
entries, child nodes, and the SS-tree extension's sphere entries (via
bounding rectangles).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

from repro.geometry.rect import Rect, box_area, box_margin, box_overlap

E = TypeVar("E")
RectOf = Callable[[E], Rect]
Groups = Tuple[List[E], List[E]]
#: The ``(low, high)`` corner tuples of a box.
Corners = Tuple[Tuple[float, ...], Tuple[float, ...]]


class SplitPolicy:
    """Interface: distribute an overflowing entry set into two groups."""

    #: Human-readable policy name (used in ablation reports).
    name = "abstract"

    def split(self, entries: Sequence[E], min_fill: int, rect_of: RectOf) -> Groups:
        """Partition *entries* into two groups of at least *min_fill* each.

        :param entries: the M+1 entries of the overflowing node.
        :param min_fill: minimum number of entries per resulting group.
        :param rect_of: maps an entry to its MBR.
        """
        raise NotImplementedError

    def _check(self, entries: Sequence[E], min_fill: int) -> None:
        if len(entries) < 2 * min_fill:
            raise ValueError(
                f"cannot split {len(entries)} entries with min fill {min_fill}"
            )


class RStarSplit(SplitPolicy):
    """The R*-tree topological split (Beckmann et al. 1990, §4.2).

    ChooseSplitAxis picks the axis whose candidate distributions have the
    smallest total margin; ChooseSplitIndex then picks the distribution
    with the least overlap between the two groups (ties broken by combined
    area).

    Every candidate group is a prefix or a suffix of one of the axis
    sorts, so one forward and one backward sweep of running min/max
    corners per sort bound all of them.  Taking the minimum of the same
    coordinates in the same scan order is exact, so these boxes are bit
    for bit the ones :meth:`Rect.union_of` builds for each group, and the
    functions behind :meth:`Rect.margin`, :meth:`Rect.area` and
    :meth:`Rect.intersection_area` measure them.
    """

    name = "rstar"

    def split(self, entries: Sequence[E], min_fill: int, rect_of: RectOf) -> Groups:
        self._check(entries, min_fill)
        entries = list(entries)
        rects = [rect_of(e) for e in entries]
        cuts = range(min_fill, len(entries) - min_fill + 1)

        best_sweeps = best_margin_sum = None
        for axis in range(rects[0].dims):
            sweeps = [
                _sweep(rects, order, min_fill)
                for order in _axis_orders(rects, axis)
            ]
            margin_sum = 0.0
            for _, prefix, suffix in sweeps:
                for split_at in cuts:
                    margin_sum += (
                        box_margin(*prefix[split_at])
                        + box_margin(*suffix[split_at])
                    )
            if best_sweeps is None or margin_sum < best_margin_sum:
                best_margin_sum = margin_sum
                best_sweeps = sweeps

        best_key = None
        for order, prefix, suffix in best_sweeps:
            for split_at in cuts:
                low1, high1 = prefix[split_at]
                low2, high2 = suffix[split_at]
                key = (
                    box_overlap(low1, high1, low2, high2),
                    box_area(low1, high1) + box_area(low2, high2),
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best_order, best_split_at = order, split_at
        return (
            [entries[i] for i in best_order[:best_split_at]],
            [entries[i] for i in best_order[best_split_at:]],
        )


def _axis_orders(rects: List[Rect], axis: int) -> Tuple[List[int], List[int]]:
    """The two sorts considered per axis: by low edge and by high edge.

    Sorting positions (stably) orders equal keys exactly as sorting the
    entries themselves would.
    """
    lows = [r.low[axis] for r in rects]
    highs = [r.high[axis] for r in rects]
    positions = range(len(rects))
    return (
        sorted(positions, key=lambda i: (lows[i], highs[i])),
        sorted(positions, key=lambda i: (highs[i], lows[i])),
    )


def _sweep(
    rects: List[Rect], order: List[int], min_fill: int
) -> Tuple[List[int], Dict[int, Corners], Dict[int, Corners]]:
    """``(order, prefix, suffix)`` for the cut positions of one sort.

    ``prefix[k]`` bounds ``order[:k]`` and ``suffix[k]`` bounds
    ``order[k:]``, for every ``k`` in ``[min_fill, len(order) - min_fill]``.
    ``min(a, b, ...)`` keeps the first of equal values, as the forward
    scan of :meth:`Rect.union_of` does, so the shortest prefix and suffix
    are folded in entry order; the prefix then grows forward with the
    running box first, and the suffix grows backward with the new,
    earlier rectangle first — on ties both keep the value the forward
    scan would have kept.
    """
    last_cut = len(order) - min_fill
    low, high = _bound([rects[i] for i in order[:min_fill]])
    prefix = {min_fill: (low, high)}
    for k in range(min_fill, last_cut):
        r = rects[order[k]]
        low = tuple(map(min, low, r.low))
        high = tuple(map(max, high, r.high))
        prefix[k + 1] = (low, high)

    low, high = _bound([rects[i] for i in order[last_cut:]])
    suffix = {last_cut: (low, high)}
    for k in range(last_cut - 1, min_fill - 1, -1):
        r = rects[order[k]]
        low = tuple(map(min, r.low, low))
        high = tuple(map(max, r.high, high))
        suffix[k] = (low, high)
    return order, prefix, suffix


def _bound(rects: List[Rect]) -> Corners:
    """The corners of ``Rect.union_of(rects)``, bit for bit."""
    if len(rects) == 1:
        return rects[0].low, rects[0].high
    return (
        tuple(map(min, *[r.low for r in rects])),
        tuple(map(max, *[r.high for r in rects])),
    )


class QuadraticSplit(SplitPolicy):
    """Guttman's quadratic-cost split (SIGMOD 1984, §3.5.2)."""

    name = "quadratic"

    def split(self, entries: Sequence[E], min_fill: int, rect_of: RectOf) -> Groups:
        self._check(entries, min_fill)
        remaining = list(entries)
        seed1, seed2 = self._pick_seeds(remaining, rect_of)
        # Remove the higher index first so the lower one stays valid.
        for index in sorted((seed1, seed2), reverse=True):
            remaining.pop(index)
        group1 = [entries[seed1]]
        group2 = [entries[seed2]]
        bb1 = rect_of(entries[seed1])
        bb2 = rect_of(entries[seed2])

        while remaining:
            # Min-fill forcing: if one group must absorb the rest, do it.
            if len(group1) + len(remaining) == min_fill:
                group1.extend(remaining)
                break
            if len(group2) + len(remaining) == min_fill:
                group2.extend(remaining)
                break
            index, prefer_first = self._pick_next(remaining, bb1, bb2, rect_of)
            entry = remaining.pop(index)
            if prefer_first:
                group1.append(entry)
                bb1 = bb1.union(rect_of(entry))
            else:
                group2.append(entry)
                bb2 = bb2.union(rect_of(entry))
        return group1, group2

    @staticmethod
    def _pick_seeds(entries: List[E], rect_of: RectOf) -> Tuple[int, int]:
        """The pair wasting the most area if placed together."""
        best = (0, 1)
        best_waste = float("-inf")
        for i in range(len(entries)):
            r_i = rect_of(entries[i])
            for j in range(i + 1, len(entries)):
                r_j = rect_of(entries[j])
                waste = r_i.union(r_j).area() - r_i.area() - r_j.area()
                if waste > best_waste:
                    best_waste = waste
                    best = (i, j)
        return best

    @staticmethod
    def _pick_next(
        remaining: List[E], bb1: Rect, bb2: Rect, rect_of: RectOf
    ) -> Tuple[int, bool]:
        """Entry with the strongest preference, and which group it prefers."""
        best_index = 0
        best_diff = -1.0
        best_prefer_first = True
        for i, entry in enumerate(remaining):
            r = rect_of(entry)
            d1 = bb1.enlargement(r)
            d2 = bb2.enlargement(r)
            diff = abs(d1 - d2)
            if diff > best_diff:
                best_diff = diff
                best_index = i
                if d1 != d2:
                    best_prefer_first = d1 < d2
                else:
                    # Resolve ties by smaller area, then smaller group.
                    if bb1.area() != bb2.area():
                        best_prefer_first = bb1.area() < bb2.area()
                    else:
                        best_prefer_first = True
        return best_index, best_prefer_first


class LinearSplit(SplitPolicy):
    """Guttman's linear-cost split (SIGMOD 1984, §3.5.3)."""

    name = "linear"

    def split(self, entries: Sequence[E], min_fill: int, rect_of: RectOf) -> Groups:
        self._check(entries, min_fill)
        remaining = list(entries)
        seed1, seed2 = self._pick_seeds(remaining, rect_of)
        entry1 = remaining[seed1]
        entry2 = remaining[seed2]
        for index in sorted((seed1, seed2), reverse=True):
            remaining.pop(index)
        group1 = [entry1]
        group2 = [entry2]
        bb1 = rect_of(entry1)
        bb2 = rect_of(entry2)

        for position, entry in enumerate(remaining):
            left = len(remaining) - position
            if len(group1) + left == min_fill:
                group1.extend(remaining[position:])
                return group1, group2
            if len(group2) + left == min_fill:
                group2.extend(remaining[position:])
                return group1, group2
            r = rect_of(entry)
            if bb1.enlargement(r) <= bb2.enlargement(r):
                group1.append(entry)
                bb1 = bb1.union(r)
            else:
                group2.append(entry)
                bb2 = bb2.union(r)
        return group1, group2

    @staticmethod
    def _pick_seeds(entries: List[E], rect_of: RectOf) -> Tuple[int, int]:
        """Pair with the greatest normalized separation over all axes."""
        dims = rect_of(entries[0]).dims
        best = (0, 1)
        best_separation = float("-inf")
        for axis in range(dims):
            lows = [rect_of(e).low[axis] for e in entries]
            highs = [rect_of(e).high[axis] for e in entries]
            # Entry with the highest low edge and entry with the lowest
            # high edge are the most separated pair along this axis.
            high_low = max(range(len(entries)), key=lambda i: lows[i])
            low_high = min(range(len(entries)), key=lambda i: highs[i])
            if high_low == low_high:
                continue
            width = max(highs) - min(lows)
            if width <= 0.0:
                continue
            separation = (lows[high_low] - highs[low_high]) / width
            if separation > best_separation:
                best_separation = separation
                best = (low_high, high_low)
        return best
