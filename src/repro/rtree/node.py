"""Tree nodes and leaf entries.

A node corresponds to exactly one disk page (paper §2.1).  Internal nodes
hold child nodes directly; the child's cached MBR and subtree object count
play the role of the on-disk ``(R, count, child_ptr)`` entry.  Leaf nodes
hold :class:`LeafEntry` records ``(R, object_ptr)`` — for point data the
MBR is degenerate and the raw point is kept alongside for fast distance
computation.
"""

from __future__ import annotations

from operator import lt
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.geometry.point import Point, validate_point
from repro.geometry.rect import Rect


class LeafEntry:
    """A leaf-level entry: the MBR of one data object plus its pointer.

    For the point data sets of the paper the MBR degenerates to the point
    itself; ``point`` stores it unwrapped so distance computations avoid
    re-deriving it from the rectangle.
    """

    __slots__ = ("rect", "point", "oid")

    def __init__(self, point: Sequence[float], oid: int):
        self.point: Point = validate_point(point)
        self.rect: Rect = Rect(self.point, self.point)
        self.oid = int(oid)

    def __repr__(self) -> str:
        return f"LeafEntry(oid={self.oid}, point={self.point})"


class Node:
    """One R*-tree node (= one disk page).

    ``level`` is 0 for leaves and grows toward the root.  ``entries`` holds
    :class:`LeafEntry` objects at level 0 and child :class:`Node` objects
    above.  ``mbr`` and ``object_count`` are caches refreshed by
    :meth:`refresh` whenever the entry list changes; the tree code is
    responsible for calling it (and :meth:`refresh_path` for ancestors).
    """

    __slots__ = ("page_id", "level", "entries", "parent", "mbr",
                 "object_count", "_bounds")

    def __init__(self, page_id: int, level: int):
        self.page_id = page_id
        self.level = level
        self.entries: List[Union[LeafEntry, "Node"]] = []
        self.parent: Optional["Node"] = None
        self.mbr: Optional[Rect] = None
        self.object_count = 0
        #: Cached (lows, highs) float64 matrices over the entries' MBRs,
        #: feeding the batch kernels in :mod:`repro.perf.kernels`.
        #: Invalidated by every mutation path (:meth:`add`,
        #: :meth:`refresh`, :meth:`extend_path`).
        self._bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def is_leaf(self) -> bool:
        """True for level-0 nodes, which store data entries."""
        return self.level == 0

    def refresh(self) -> None:
        """Recompute the cached MBR and subtree object count from entries."""
        # The entry list (and therefore this node's bounds matrices) may
        # have changed, and this node's MBR is about to — which stales
        # the parent's view of it as an entry.
        self._bounds = None
        if self.parent is not None:
            self.parent._bounds = None
        if not self.entries:
            self.mbr = None
            self.object_count = 0
            return
        rects = [
            e.rect if isinstance(e, LeafEntry) else e.mbr
            for e in self.entries
        ]
        present = [r for r in rects if r is not None]
        self.mbr = Rect.union_of(present) if present else None
        if self.is_leaf:
            self.object_count = len(self.entries)
        else:
            self.object_count = sum(child.object_count for child in self.entries)

    def refresh_path(self) -> None:
        """Refresh this node and every ancestor up to the root."""
        node: Optional[Node] = self
        while node is not None:
            node.refresh()
            node = node.parent

    def extend_path(self, rect: Rect, added_objects: int) -> None:
        """Incrementally grow caches after appending one entry.

        Cheaper than :meth:`refresh_path` — O(height · dims) instead of
        O(height · fan-out · dims) — and exact for pure additions: the
        MBR can only grow and the count only increases.  Callers removing
        or replacing entries must use :meth:`refresh_path` instead.

        An MBR that strictly contains *rect* on every axis is kept as it
        is: :meth:`Rect.union` would rebuild the very same corners.  (On
        a touching face the union takes *rect*'s coordinate, which may
        differ in the sign of a zero, so that case still goes through it.)
        """
        node: Optional[Node] = self
        while node is not None:
            mbr = node.mbr
            if mbr is None or not (
                all(map(lt, mbr.low, rect.low))
                and all(map(lt, rect.high, mbr.high))
            ):
                node.mbr = rect if mbr is None else mbr.union(rect)
                # This node's MBR grew: the parent's bounds matrices
                # (which hold it as a row) are stale.
                if node.parent is not None:
                    node.parent._bounds = None
            node.object_count += added_objects
            node = node.parent

    def add(self, entry: Union[LeafEntry, "Node"]) -> None:
        """Append *entry*, fixing parent pointers for child nodes.

        Does **not** refresh caches — callers batch modifications and then
        call :meth:`refresh` / :meth:`refresh_path` once.
        """
        if isinstance(entry, Node):
            entry.parent = self
        self.entries.append(entry)
        self._bounds = None

    def replace_entries(
        self, entries: Sequence[Union[LeafEntry, "Node"]]
    ) -> None:
        """Replace the whole entry list, invalidating the bounds cache.

        Rebinding ``node.entries`` directly bypasses invalidation: a
        same-length replacement would keep serving the old corner
        matrices to the batch kernels.  Every bulk rewrite (forced
        reinsertion, node splits) must come through here.  Like
        :meth:`add`, this does not refresh the MBR/count caches —
        callers follow up with :meth:`refresh` / :meth:`refresh_path`.
        """
        replacement = list(entries)
        for entry in replacement:
            if isinstance(entry, Node):
                entry.parent = self
        self.entries = replacement
        self._bounds = None

    def entry_bounds(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Flat ``(lows, highs)`` corner matrices over this node's entries.

        Shape ``(len(entries), dims)`` each, row *i* holding the MBR of
        ``entries[i]`` (for leaves the two coincide: degenerate point
        MBRs).  This is the input format of the batch kernels in
        :mod:`repro.perf.kernels`; the matrices are cached until a
        mutation invalidates them, so repeated scans of a static tree
        pay the flattening cost once per node.

        Returns ``None`` when no matrix form exists — an empty node, or
        an entry without a materialized MBR — in which case callers use
        the scalar path.
        """
        cached = self._bounds
        # Cache validity is purely "has a mutation invalidated it" — a
        # length comparison against the entry list would mask rebinding
        # bugs by serving stale matrices for same-length replacements.
        if cached is not None:
            return cached
        if not self.entries:
            return None
        rects = []
        for entry in self.entries:
            rect = entry.rect if isinstance(entry, LeafEntry) else entry.mbr
            if rect is None:
                return None
            rects.append(rect)
        lows = np.array([rect.low for rect in rects], dtype=np.float64)
        highs = np.array([rect.high for rect in rects], dtype=np.float64)
        self._bounds = (lows, highs)
        return self._bounds

    def entry_rect(self, index: int) -> Rect:
        """MBR of the entry at *index*, uniform over leaf/internal nodes."""
        entry = self.entries[index]
        return entry.rect if isinstance(entry, LeafEntry) else entry.mbr

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"internal(level={self.level})"
        return f"Node(page={self.page_id}, {kind}, entries={len(self.entries)})"
