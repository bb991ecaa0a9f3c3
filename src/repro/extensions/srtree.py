"""The SR-tree access method (Katayama & Satoh, SIGMOD 1997).

The last of the paper's named future-work access methods implemented
here (§5).  The SR-tree bounds every subtree by the **intersection of a
bounding rectangle and a bounding sphere**: the rectangle is tight on
skewed data, the sphere is tight around centroids, and their
intersection dominates both — so ``Dmin`` is the larger of the two
parts' bounds, which prunes strictly more than either tree alone.

Structure and insertion follow the SS-tree (centroid-guided descent,
variance split); every node additionally maintains the exact MBR of its
subtree.  The combined bound is exposed to the search algorithms as a
:class:`SRRegion` through ``node.mbr``, which the dispatchers of
:mod:`repro.core.regions` combine per the rules above.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.geometry.point import (
    Point,
    coordinate_bound,
    squared_euclidean,
    validate_point,
)
from repro.geometry.rect import Rect
from repro.geometry.sphere import Sphere
from repro.rtree.node import LeafEntry

Entry = Union[LeafEntry, "SRNode"]


class SRRegion:
    """The SR-tree bounding region: a rectangle ∩ sphere pair."""

    __slots__ = ("rect", "sphere")

    def __init__(self, rect: Rect, sphere: Sphere):
        if rect.dims != sphere.dims:
            raise ValueError(
                f"dimension mismatch: rect {rect.dims}-d, sphere {sphere.dims}-d"
            )
        self.rect = rect
        self.sphere = sphere

    @property
    def dims(self) -> int:
        """Dimensionality of the region."""
        return self.rect.dims

    @property
    def center(self) -> Point:
        """The sphere's center (the subtree centroid)."""
        return self.sphere.center

    def __repr__(self) -> str:
        return f"SRRegion(rect={self.rect}, sphere={self.sphere})"


def _entry_centroid(entry: Entry) -> Point:
    return entry.point if isinstance(entry, LeafEntry) else entry.mbr.center


def _entry_count(entry: Entry) -> int:
    return 1 if isinstance(entry, LeafEntry) else entry.object_count


def _entry_rect(entry: Entry) -> Rect:
    return entry.rect if isinstance(entry, LeafEntry) else entry.mbr.rect


class SRNode:
    """One SR-tree node; ``mbr`` holds the combined :class:`SRRegion`."""

    __slots__ = ("page_id", "level", "entries", "parent", "mbr", "object_count")

    def __init__(self, page_id: int, level: int):
        self.page_id = page_id
        self.level = level
        self.entries: List[Entry] = []
        self.parent: Optional["SRNode"] = None
        self.mbr: Optional[SRRegion] = None
        self.object_count = 0

    @property
    def is_leaf(self) -> bool:
        """True for level-0 nodes holding data entries."""
        return self.level == 0

    def add(self, entry: Entry) -> None:
        """Append *entry*, wiring parent pointers for child nodes."""
        if isinstance(entry, SRNode):
            entry.parent = self
        self.entries.append(entry)

    def replace_entries(self, entries: Sequence[Entry]) -> None:
        """Replace the whole entry list, wiring parent pointers.

        Same contract as :meth:`repro.rtree.node.Node.replace_entries`:
        bulk rewrites go through here rather than rebinding ``entries``
        directly, so node classes that cache derived matrices invalidate
        uniformly (SR-nodes have no such cache, but split code is shared
        idiom across the tree variants).
        """
        replacement = list(entries)
        for entry in replacement:
            if isinstance(entry, SRNode):
                entry.parent = self
        self.entries = replacement

    def refresh(self) -> None:
        """Recompute the rect, the sphere and the object count.

        Following Katayama & Satoh: the rectangle is the exact union of
        the entry rectangles; the sphere sits at the count-weighted
        centroid with the smallest radius covering every entry through
        *either* bound — the radius is the min of the sphere-based and
        rectangle-based reaches, both of which are valid covers.
        """
        if not self.entries:
            self.mbr = None
            self.object_count = 0
            return
        total = sum(_entry_count(e) for e in self.entries)
        dims = len(_entry_centroid(self.entries[0]))
        centroid = [0.0] * dims
        for entry in self.entries:
            weight = _entry_count(entry) / total
            for i, c in enumerate(_entry_centroid(entry)):
                centroid[i] += weight * c
        center = tuple(centroid)

        rect = Rect.union_of(_entry_rect(e) for e in self.entries)
        sphere_reach = 0.0
        for entry in self.entries:
            distance = math.sqrt(
                squared_euclidean(center, _entry_centroid(entry))
            )
            if isinstance(entry, LeafEntry):
                reach = distance
            else:
                reach = distance + entry.mbr.sphere.radius
            if reach > sphere_reach:
                sphere_reach = reach
        # The rectangle also covers everything: its farthest corner from
        # the centroid is an alternative (often smaller) valid radius.
        rect_reach = math.sqrt(
            sum(
                max(abs(c - lo), abs(hi - c)) ** 2
                for c, lo, hi in zip(center, rect.low, rect.high)
            )
        )
        radius = min(sphere_reach, rect_reach)
        self.mbr = SRRegion(rect, Sphere(center, radius))
        self.object_count = total

    def refresh_path(self) -> None:
        """Refresh this node and every ancestor."""
        node: Optional[SRNode] = self
        while node is not None:
            node.refresh()
            node = node.parent

    def __len__(self) -> int:
        return len(self.entries)


class SRTree:
    """A dynamic SR-tree over n-dimensional points.

    Same construction parameters and page-table interface as
    :class:`~repro.extensions.sstree.SSTree`.
    """

    def __init__(
        self,
        dims: int,
        max_entries: int = 20,
        min_entries: Optional[int] = None,
        on_split=None,
        on_new_root=None,
    ):
        if dims < 1:
            raise ValueError(f"dimensionality must be positive, got {dims}")
        if max_entries < 2:
            raise ValueError(f"max_entries must be at least 2, got {max_entries}")
        self.dims = dims
        self.max_entries = max_entries
        #: Largest coordinate magnitude :meth:`insert` accepts.
        self.coordinate_bound = coordinate_bound(dims)
        if min_entries is not None:
            self.min_entries = min_entries
        else:
            self.min_entries = max(1, int(max_entries * 0.4))
        if not 1 <= self.min_entries <= max_entries // 2:
            raise ValueError(
                f"min_entries must be in [1, {max_entries // 2}], "
                f"got {self.min_entries}"
            )
        self.on_split = on_split
        self.on_new_root = on_new_root
        self.pages: Dict[int, SRNode] = {}
        self._next_page_id = 0
        self.size = 0
        self.root = self._new_node(0)
        if self.on_new_root is not None:
            self.on_new_root(self.root)

    def _new_node(self, level: int) -> SRNode:
        node = SRNode(self._next_page_id, level)
        self.pages[node.page_id] = node
        self._next_page_id += 1
        return node

    @property
    def root_page_id(self) -> int:
        """Page id of the root node."""
        return self.root.page_id

    @property
    def height(self) -> int:
        """Number of levels."""
        return self.root.level + 1

    def page(self, page_id: int) -> SRNode:
        """The node stored on *page_id*."""
        return self.pages[page_id]

    def __len__(self) -> int:
        return self.size

    def iter_points(self) -> Iterator[Tuple[Point, int]]:
        """All stored ``(point, oid)`` pairs."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for entry in node.entries:
                    yield entry.point, entry.oid
            else:
                stack.extend(node.entries)

    def insert(self, point: Sequence[float], oid: int) -> None:
        """Insert one data point.

        :raises ValueError: like :meth:`repro.rtree.RStarTree.insert`, for
            a point beyond :func:`~repro.geometry.point.coordinate_bound`
            among others, before the tree changes.
        """
        entry = LeafEntry(
            validate_point(point, self.dims, self.coordinate_bound), oid
        )
        leaf = self._choose_leaf(entry.point)
        leaf.add(entry)
        leaf.refresh_path()
        node = leaf
        while node is not None and len(node) > self.max_entries:
            parent = node.parent
            self._split(node)
            node = parent
        self.size += 1

    def _choose_leaf(self, point: Point) -> SRNode:
        node = self.root
        while not node.is_leaf:
            node = min(
                node.entries,
                key=lambda child: squared_euclidean(
                    point, child.mbr.sphere.center
                ),
            )
        return node

    def _split(self, node: SRNode) -> None:
        group1, group2 = self._variance_split(node.entries)
        new_node = self._new_node(node.level)
        node.replace_entries(())
        for entry in group1:
            node.add(entry)
        for entry in group2:
            new_node.add(entry)
        node.refresh()
        new_node.refresh()

        if node is self.root:
            new_root = self._new_node(node.level + 1)
            new_root.add(node)
            new_root.add(new_node)
            new_root.refresh()
            self.root = new_root
            if self.on_split is not None:
                self.on_split(node, new_node)
            if self.on_new_root is not None:
                self.on_new_root(new_root)
            return

        parent = node.parent
        parent.add(new_node)
        parent.refresh_path()
        if self.on_split is not None:
            self.on_split(node, new_node)

    def _variance_split(self, entries: List[Entry]):
        centroids = [_entry_centroid(e) for e in entries]
        axis = max(
            range(self.dims),
            key=lambda d: _variance([c[d] for c in centroids]),
        )
        order = sorted(range(len(entries)), key=lambda i: centroids[i][axis])
        values = [centroids[i][axis] for i in order]
        best_index = self.min_entries
        best_score = math.inf
        for split_at in range(
            self.min_entries, len(entries) - self.min_entries + 1
        ):
            score = _variance(values[:split_at]) + _variance(values[split_at:])
            if score < best_score:
                best_score = score
                best_index = split_at
        return (
            [entries[i] for i in order[:best_index]],
            [entries[i] for i in order[best_index:]],
        )

    def knn(self, point: Sequence[float], k: int):
        """Exact in-memory k-NN (oracle for WOPTSS and tests)."""
        import heapq
        import itertools

        from repro.core.regions import region_minimum_distance_sq

        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        query = validate_point(point, self.dims)
        counter = itertools.count()
        heap = [(0.0, 0, next(counter), self.root)]
        results = []
        while heap:
            dist_sq, kind, _, item = heapq.heappop(heap)
            if kind == 1:
                results.append((math.sqrt(dist_sq), item.point, item.oid))
                if len(results) == k:
                    break
                continue
            node: SRNode = item
            if node.is_leaf:
                for entry in node.entries:
                    d = squared_euclidean(query, entry.point)
                    heapq.heappush(heap, (d, 1, entry.oid, entry))
            else:
                for child in node.entries:
                    if child.mbr is not None:
                        d = region_minimum_distance_sq(query, child.mbr)
                        heapq.heappush(heap, (d, 0, next(counter), child))
        return results

    def kth_nearest_distance(self, point: Sequence[float], k: int) -> float:
        """Oracle distance ``D_k`` for WOPTSS over the SR-tree."""
        results = self.knn(point, k)
        if not results:
            raise ValueError("k-th nearest distance undefined on empty tree")
        return results[-1][0]


def _variance(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / len(values)


class ParallelSRTree:
    """An SR-tree declustered over a disk array (PI over the rect part)."""

    def __init__(
        self,
        dims: int,
        num_disks: int,
        policy=None,
        num_cylinders: int = 1449,
        seed: int = 0,
        **tree_kwargs,
    ):
        import random

        from repro.parallel.declustering import ProximityIndex

        if num_disks < 1:
            raise ValueError(f"num_disks must be positive, got {num_disks}")
        self.num_disks = num_disks
        self.num_cylinders = num_cylinders
        self._dims = dims
        self.policy = policy if policy is not None else ProximityIndex()
        self._placement: Dict[int, int] = {}
        self._cylinder: Dict[int, int] = {}
        self._nodes_per_disk = [0] * num_disks
        self._cylinder_rng = random.Random(seed ^ 0x5271EE)
        self.tree = SRTree(
            dims,
            on_split=lambda old, new: self._place(new),
            on_new_root=self._on_new_root,
            **tree_kwargs,
        )

    def _on_new_root(self, root: SRNode) -> None:
        if root.page_id not in self._placement:
            self._place(root)

    def _place(self, node: SRNode) -> None:
        from repro.parallel.declustering import PlacementContext

        siblings = []
        if node.parent is not None:
            for sibling in node.parent.entries:
                if sibling is node or sibling.mbr is None:
                    continue
                disk = self._placement.get(sibling.page_id)
                if disk is not None:
                    siblings.append((sibling.mbr.rect, disk))
        rect = (
            node.mbr.rect
            if node.mbr is not None
            else Rect.from_point((0.0,) * self._dims)
        )
        context = PlacementContext(
            rect=rect,
            siblings=siblings,
            num_disks=self.num_disks,
            nodes_per_disk=list(self._nodes_per_disk),
            objects_per_disk=[0] * self.num_disks,
            area_per_disk=[0.0] * self.num_disks,
        )
        disk = self.policy.choose_disk(context)
        self._placement[node.page_id] = disk
        self._nodes_per_disk[disk] += 1
        self._cylinder[node.page_id] = self._cylinder_rng.randrange(
            self.num_cylinders
        )

    @property
    def root_page_id(self) -> int:
        """Page id of the root node."""
        return self.tree.root_page_id

    @property
    def dims(self) -> int:
        """Dimensionality of the indexed points."""
        return self._dims

    @property
    def height(self) -> int:
        """Tree height (levels)."""
        return self.tree.height

    def page(self, page_id: int) -> SRNode:
        """The node stored on *page_id*."""
        return self.tree.page(page_id)

    def disk_of(self, page_id: int) -> int:
        """The disk hosting *page_id*."""
        return self._placement[page_id]

    def cylinder_of(self, page_id: int) -> int:
        """The cylinder hosting *page_id*."""
        return self._cylinder[page_id]

    def __len__(self) -> int:
        return len(self.tree)

    def insert(self, point: Sequence[float], oid: int) -> None:
        """Insert one data point."""
        self.tree.insert(point, oid)

    def knn(self, point: Sequence[float], k: int):
        """In-memory exact k-NN."""
        return self.tree.knn(point, k)

    def kth_nearest_distance(self, point: Sequence[float], k: int) -> float:
        """Oracle distance ``D_k``."""
        return self.tree.kth_nearest_distance(point, k)


def build_parallel_srtree(
    data, dims: int, num_disks: int, seed: int = 0, **tree_kwargs
) -> ParallelSRTree:
    """Build a declustered SR-tree by one-by-one insertion."""
    tree = ParallelSRTree(dims, num_disks, seed=seed, **tree_kwargs)
    for oid, point in enumerate(data):
        tree.insert(point, oid)
    return tree
