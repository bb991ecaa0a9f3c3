"""Differential tests: batch kernels vs the scalar reference oracle.

Every comparison here is exact float equality (``==``), never a
tolerance.  The kernels in :mod:`repro.perf.kernels` are written to
perform the same IEEE-754 operations in the same order as the scalar
functions in :mod:`repro.core.distances`, so any discrepancy — however
small — is a bug, and a tolerance would hide it.
"""

import numpy as np
import pytest

from repro.core.distances import (
    maximum_distance_sq,
    minimum_distance_sq,
    minmax_distance_sq,
)
from repro.core.protocol import ChildRef
from repro.core.regions import batch_region_distances
from repro.core.scan import scan_children
from repro.core.threshold import threshold_distance_sq
from repro.geometry.point import coordinate_bound, squared_euclidean
from repro.geometry.rect import Rect
from repro.obs.metrics import MetricsRegistry
from repro.perf import kernels

DIMS = [2, 3, 5, 7, 10, 13, 16, 20]

KERNEL_PAIRS = [
    (kernels.batch_minimum_distance_sq, minimum_distance_sq),
    (kernels.batch_minmax_distance_sq, minmax_distance_sq),
    (kernels.batch_maximum_distance_sq, maximum_distance_sq),
]


def random_mbrs(dims, n, seed, degenerate=False):
    """Seeded random (lows, highs) corner matrices, MBRs possibly points."""
    rng = np.random.default_rng(seed)
    lows = rng.uniform(-5.0, 5.0, (n, dims))
    if degenerate:
        highs = lows.copy()
    else:
        highs = lows + rng.uniform(0.0, 3.0, (n, dims))
    return lows, highs


def as_rects(lows, highs):
    return [
        Rect(tuple(lo), tuple(hi))
        for lo, hi in zip(lows.tolist(), highs.tolist())
    ]


def random_queries(dims, lows, highs, seed, count=5):
    """Queries scattered around, inside, and far from the MBRs."""
    rng = np.random.default_rng(seed)
    queries = [tuple(rng.uniform(-6.0, 6.0, dims).tolist()) for _ in range(3)]
    # One query inside the first MBR, one far outside everything.
    inside = (lows[0] + highs[0]) / 2.0
    queries.append(tuple(inside.tolist()))
    queries.append(tuple((rng.uniform(50.0, 60.0, dims)).tolist()))
    return queries[:count]


@pytest.mark.parametrize("dims", DIMS)
def test_batch_kernels_match_scalar_exactly(dims):
    lows, highs = random_mbrs(dims, 64, seed=dims)
    rects = as_rects(lows, highs)
    for query in random_queries(dims, lows, highs, seed=100 + dims):
        for batch_fn, scalar_fn in KERNEL_PAIRS:
            got = batch_fn(query, lows, highs).tolist()
            expected = [scalar_fn(query, rect) for rect in rects]
            assert got == expected, (batch_fn.__name__, dims)


@pytest.mark.parametrize("dims", DIMS)
def test_degenerate_point_mbrs(dims):
    """Point MBRs (low == high): all three metrics equal the point distance."""
    lows, highs = random_mbrs(dims, 32, seed=200 + dims, degenerate=True)
    rects = as_rects(lows, highs)
    query = tuple(np.random.default_rng(300 + dims).uniform(-5, 5, dims))
    for batch_fn, scalar_fn in KERNEL_PAIRS:
        got = batch_fn(query, lows, highs).tolist()
        expected = [scalar_fn(query, rect) for rect in rects]
        assert got == expected, batch_fn.__name__
    # And the leaf-scan kernel agrees with the scalar point distance —
    # point MBRs are exactly how leaves are cached (low == the point).
    got = kernels.batch_point_distance_sq(query, lows).tolist()
    expected = [squared_euclidean(query, tuple(row)) for row in lows.tolist()]
    assert got == expected
    # For a point MBR, Dmin and Dmax collapse to the point distance
    # bit-exactly (same per-axis gaps, same accumulation order).  Dmm is
    # only *mathematically* equal: its ``far_total - far + near``
    # reassociation can land an ulp away — identically so in the scalar
    # oracle, which the loop above already checked.
    assert kernels.batch_minimum_distance_sq(query, lows, highs).tolist() == got
    assert kernels.batch_maximum_distance_sq(query, lows, highs).tolist() == got
    dmm = kernels.batch_minmax_distance_sq(query, lows, highs)
    np.testing.assert_allclose(dmm, got, rtol=1e-12)


@pytest.mark.parametrize("dims", DIMS)
def test_query_on_mbr_faces(dims):
    """Queries placed exactly on MBR faces — the branch-boundary cases.

    Every coordinate of the query coincides with either the low or the
    high corner of the first MBR, so each ``p < lo`` / ``p > hi`` /
    ``p <= mid`` comparison in the kernels runs at exact equality.
    """
    lows, highs = random_mbrs(dims, 16, seed=400 + dims)
    rects = as_rects(lows, highs)
    rng = np.random.default_rng(500 + dims)
    for _ in range(4):
        picks = rng.integers(0, 2, dims)
        query = tuple(
            (lows[0, axis] if picks[axis] else highs[0, axis])
            for axis in range(dims)
        )
        for batch_fn, scalar_fn in KERNEL_PAIRS:
            got = batch_fn(query, lows, highs).tolist()
            expected = [scalar_fn(query, rect) for rect in rects]
            assert got == expected, batch_fn.__name__
        # On the boundary of (or inside) the MBR: Dmin is exactly zero.
        assert kernels.batch_minimum_distance_sq(query, lows, highs)[0] == 0.0


# -- bit patterns of the fused node scan ------------------------------------

METRICS = ("dmin", "dmm", "dmax")
SCALAR = {
    "dmin": minimum_distance_sq,
    "dmm": minmax_distance_sq,
    "dmax": maximum_distance_sq,
}
SINGLE = {
    "dmin": kernels.batch_minimum_distance_sq,
    "dmm": kernels.batch_minmax_distance_sq,
    "dmax": kernels.batch_maximum_distance_sq,
}


def bits(values):
    """IEEE-754 bit patterns, so ``-0.0`` and ``0.0`` differ too."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def assert_bit_identical(query, lows, highs):
    """Fused scan, single-metric kernels and point kernel vs the oracle."""
    rects = as_rects(lows, highs)
    expected = {
        m: bits([SCALAR[m](query, rect) for rect in rects]) for m in METRICS
    }
    fused = kernels.batch_node_distances_sq(query, lows, highs, METRICS)
    for metric, values in zip(METRICS, fused):
        assert bits(values) == expected[metric], metric
        assert bits(SINGLE[metric](query, lows, highs)) == expected[metric]
    # Any subset, in any order, gives the same arrays.
    for metric, values in zip(
        ("dmax", "dmin"),
        kernels.batch_node_distances_sq(query, lows, highs, ("dmax", "dmin")),
    ):
        assert bits(values) == expected[metric], metric
    points = lows.tolist()
    assert bits(kernels.batch_point_distance_sq(query, lows)) == bits(
        [squared_euclidean(query, tuple(p)) for p in points]
    )


def spread_mbrs(dims, n, seed, scale=1.0):
    """MBRs whose coordinates span many binades, so sums round often."""
    rng = np.random.default_rng(seed)
    magnitude = 10.0 ** rng.uniform(-3.0, 0.0, (n, dims))
    lows = rng.uniform(-1.0, 1.0, (n, dims)) * magnitude * scale
    highs = lows + rng.uniform(0.0, 1.0, (n, dims)) * magnitude * scale
    return lows, highs


@pytest.mark.parametrize("dims", range(1, 21))
def test_fused_scan_bit_identical(dims):
    """dims 1-20: past 8 a pairwise ``numpy.sum`` changes its grouping."""
    lows, highs = spread_mbrs(dims, 96, seed=dims)
    rng = np.random.default_rng(1200 + dims)
    mids = (lows + highs) / 2.0
    queries = [rng.uniform(-1.0, 1.0, dims) * 10.0 ** rng.uniform(-3, 0)
               for _ in range(4)]
    # Exactly on a face or a mid-plane of an MBR, axis by axis: every
    # ``p < lo`` / ``p > hi`` / ``p <= mid`` / ``p >= mid`` at equality.
    for row in (0, 5):
        corners = np.stack([lows[row], highs[row], mids[row]])
        picks = rng.integers(0, 3, dims)
        queries.append(corners[picks, np.arange(dims)])
        queries.append(mids[row])
    for query in queries:
        assert_bit_identical(tuple(query.tolist()), lows, highs)


@pytest.mark.parametrize("dims", [1, 2, 3, 8, 9, 20])
def test_single_row_and_point_mbrs_bit_identical(dims):
    lows, highs = spread_mbrs(dims, 12, seed=1300 + dims)
    query = tuple(np.random.default_rng(dims).uniform(-1, 1, dims).tolist())
    for row in range(3):
        assert_bit_identical(query, lows[row:row + 1], highs[row:row + 1])
    # Degenerate (point) MBRs, alone and as a whole node.
    assert_bit_identical(query, lows[:1], lows[:1].copy())
    assert_bit_identical(query, lows, lows.copy())
    assert_bit_identical(tuple(lows[4].tolist()), lows, lows.copy())


@pytest.mark.parametrize("dims", [1, 2, 5, 13])
def test_signed_zeros_bit_identical(dims):
    rng = np.random.default_rng(1400 + dims)
    choices = np.array([-0.0, 0.0, -1.0, 1.0])
    lows = choices[rng.integers(0, 4, (40, dims))]
    highs = np.maximum(lows, choices[rng.integers(0, 4, (40, dims))])
    for query in (
        (-0.0,) * dims,
        (0.0,) * dims,
        tuple(choices[rng.integers(0, 4, dims)].tolist()),
    ):
        assert_bit_identical(query, lows, highs)


@pytest.mark.parametrize("dims", [1, 2, 3, 5, 8, 16, 20])
def test_magnitudes_up_to_the_coordinate_bound(dims):
    """The largest coordinates an index accepts stay finite and exact."""
    bound = coordinate_bound(dims)
    rng = np.random.default_rng(1500 + dims)
    lows = rng.uniform(-bound, bound, (50, dims))
    highs = np.minimum(lows + rng.uniform(0, bound, (50, dims)), bound)
    lows[0], highs[0] = -bound, bound
    queries = [(bound,) * dims, (-bound,) * dims,
               tuple(rng.uniform(-bound, bound, dims).tolist())]
    for query in queries:
        assert_bit_identical(query, lows, highs)
        for values in kernels.batch_node_distances_sq(
            query, lows, highs, METRICS
        ):
            assert np.isfinite(values).all()


class _StubNode:
    """An internal node reduced to what ``scan_children`` reads."""

    def __init__(self, lows, highs):
        self._bounds = (lows, highs)
        self._refs = [
            ChildRef(rect, 1 + i, i)
            for i, rect in enumerate(as_rects(lows, highs))
        ]

    def child_refs(self):
        return self._refs

    def entry_bounds(self):
        return self._bounds


@pytest.mark.parametrize("dims", [1, 4, 9, 17])
def test_scan_children_bit_identical_to_scalar_path(dims):
    lows, highs = spread_mbrs(dims, 23, seed=1600 + dims)
    node = _StubNode(lows, highs)
    query = tuple(((lows[3] + highs[3]) / 2.0).tolist())
    with kernels.use_vectorized(True):
        fused = scan_children(query, node, want_dmm=True, want_dmax=True)
    with kernels.use_vectorized(False):
        scalar = scan_children(query, node, want_dmm=True, want_dmax=True)
    for field in ("dmin_sq", "dmm_sq", "dmax_sq"):
        assert bits(getattr(fused, field)) == bits(getattr(scalar, field))
    assert fused.counts.tolist() == [ref.count for ref in node.child_refs()]


@pytest.mark.parametrize("dims", [2, 10])
def test_batch_region_distances_paths_agree(dims):
    """The region dispatcher returns identical lists on both paths."""
    lows, highs = random_mbrs(dims, 40, seed=600 + dims)
    rects = as_rects(lows, highs)
    query = tuple(np.random.default_rng(700 + dims).uniform(-5, 5, dims))
    metrics = ["dmin", "dmm", "dmax"]
    with kernels.use_vectorized(True):
        vectorized = batch_region_distances(query, rects, metrics)
    with kernels.use_vectorized(False):
        scalar = batch_region_distances(query, rects, metrics)
    assert vectorized == scalar
    # Prebuilt bounds (the cached-node fast path) agree too.
    with kernels.use_vectorized(True):
        cached = batch_region_distances(
            query, rects, metrics, bounds=(lows, highs)
        )
    assert cached == scalar


@pytest.mark.parametrize("k", [1, 3, 10, 50, 1000])
def test_threshold_paths_agree(k):
    """Lemma 1 returns the identical Threshold on both paths.

    The MBR set contains duplicated rectangles (equal ``Dmax``) with
    different subtree counts, so the lexsort tie-break of the vectorized
    path is exercised against the scalar tuple sort.
    """
    lows, highs = random_mbrs(4, 20, seed=800)
    rects = as_rects(lows, highs)
    rng = np.random.default_rng(801)
    entries = [
        ChildRef(rect, int(count), page_id)
        for page_id, (rect, count) in enumerate(
            zip(rects, rng.integers(1, 30, len(rects)))
        )
    ]
    # Duplicates: same rect (same Dmax), different counts and page ids.
    entries += [
        ChildRef(entries[i].rect, int(rng.integers(1, 30)), 100 + i)
        for i in (0, 3, 7)
    ]
    query = tuple(rng.uniform(-5, 5, 4))
    with kernels.use_vectorized(True):
        vectorized = threshold_distance_sq(query, entries, k)
    with kernels.use_vectorized(False):
        scalar = threshold_distance_sq(query, entries, k)
    assert vectorized == scalar
    assert vectorized.dth_sq == scalar.dth_sq
    assert vectorized.prefix_length == scalar.prefix_length
    assert vectorized.guaranteed == scalar.guaranteed


def test_threshold_rejects_misaligned_dmax():
    lows, highs = random_mbrs(2, 4, seed=900)
    entries = [
        ChildRef(rect, 1, i) for i, rect in enumerate(as_rects(lows, highs))
    ]
    with pytest.raises(ValueError, match="dmax_sq has"):
        threshold_distance_sq((0.0, 0.0), entries, 2, dmax_sq=[1.0])


class TestInstrumentation:
    def test_vector_counters(self):
        registry = MetricsRegistry()
        previous = kernels.instrument_kernels(registry)
        try:
            lows, highs = random_mbrs(3, 17, seed=1000)
            query = (0.0, 0.0, 0.0)
            kernels.batch_minimum_distance_sq(query, lows, highs)
            kernels.batch_minmax_distance_sq(query, lows, highs)
            kernels.batch_maximum_distance_sq(query, lows, highs)
            kernels.batch_point_distance_sq(query, lows)
        finally:
            kernels.instrument_kernels(previous)
        for metric in ("dmin", "dmm", "dmax", "pointdist"):
            assert registry.counter(
                f"kernels.{metric}.vector_batches"
            ).value == 1
            assert registry.counter(
                f"kernels.{metric}.vector_entries"
            ).value == 17

    def test_scalar_counters(self):
        registry = MetricsRegistry()
        previous = kernels.instrument_kernels(registry)
        try:
            lows, highs = random_mbrs(3, 9, seed=1001)
            query = (0.0, 0.0, 0.0)
            with kernels.use_vectorized(False):
                batch_region_distances(
                    query, as_rects(lows, highs), ["dmin", "dmax"]
                )
        finally:
            kernels.instrument_kernels(previous)
        for metric in ("dmin", "dmax"):
            assert registry.counter(
                f"kernels.{metric}.scalar_entries"
            ).value == 9

    def test_detached_registry_sees_nothing(self):
        registry = MetricsRegistry()
        previous = kernels.instrument_kernels(registry)
        kernels.instrument_kernels(previous)
        lows, highs = random_mbrs(2, 4, seed=1002)
        kernels.batch_minimum_distance_sq((0.0, 0.0), lows, highs)
        assert list(registry) == []


class TestValidation:
    def test_dimension_mismatch(self):
        lows, highs = random_mbrs(3, 4, seed=1100)
        with pytest.raises(ValueError, match="dimension mismatch"):
            kernels.batch_minimum_distance_sq((0.0, 0.0), lows, highs)
        with pytest.raises(ValueError, match="dimension mismatch"):
            kernels.batch_point_distance_sq((0.0, 0.0), lows)

    def test_shape_mismatch(self):
        lows, highs = random_mbrs(3, 4, seed=1101)
        with pytest.raises(ValueError, match="corner matrices"):
            kernels.batch_maximum_distance_sq((0.0,) * 3, lows, highs[:2])

    def test_switch_restores_on_error(self):
        assert kernels.vectorization_enabled()
        with pytest.raises(RuntimeError):
            with kernels.use_vectorized(False):
                assert not kernels.vectorization_enabled()
                raise RuntimeError("boom")
        assert kernels.vectorization_enabled()
