"""Vectorized batch distance kernels (exact twins of the scalar ones).

Each kernel takes a query point and the flat ``(n, dims)`` low/high
corner matrices of *n* MBRs (for point data the two matrices coincide)
and returns the *n* squared distances as a float64 array.  A node is
scored with a fixed number of whole-matrix numpy calls whatever its
dimensionality, since at the paper's page sizes (tens of entries per
node) per-call overhead is the cost.

**Exactness contract.**  The kernels must return bit-identical results
to the scalar reference in :mod:`repro.core.distances` — the search
algorithms run with either path and the differential tests compare them
with ``==``, not with a tolerance.  IEEE-754 addition is not
associative, so the kernels may not use :func:`numpy.sum` or
``add.reduce`` over the axis dimension (both may reassociate terms).
Per-axis sums use ``add.accumulate`` instead, which adds left to right
exactly like the scalar loops.  Per-element operations (``+`` ``-``
``*`` ``/`` ``min`` ``max``) are correctly rounded in both numpy and
CPython, so equal operands in equal order imply equal results.

The module also owns two pieces of global plumbing:

* the ``use_vectorized`` switch (default on) consulted by the node-scan
  layer in :mod:`repro.core.scan`, with the scalar path kept as the
  reference oracle;
* an optional :class:`~repro.obs.metrics.MetricsRegistry` hook counting
  kernel invocations and entries processed per metric and per path
  (``vector`` / ``scalar``), which the bench harness snapshots into
  ``BENCH_*.json``.

This module is a leaf: it imports only numpy and :mod:`repro.obs`, so
every layer (geometry, rtree, core) may call into it freely.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "batch_maximum_distance_sq",
    "batch_minimum_distance_sq",
    "batch_minmax_distance_sq",
    "batch_node_distances_sq",
    "batch_point_distance_sq",
    "instrument_kernels",
    "record_kernel_use",
    "set_vectorized",
    "use_vectorized",
    "vectorization_enabled",
]


# -- the use_vectorized switch --------------------------------------------

_vectorized: bool = True


def vectorization_enabled() -> bool:
    """True when the numpy kernels are active (the default)."""
    return _vectorized


def set_vectorized(enabled: bool) -> bool:
    """Switch the batch kernels on or off globally; returns the old value.

    With the switch off every node scan falls back to the scalar
    reference functions in :mod:`repro.core.distances` /
    :mod:`repro.core.regions` — the oracle the vectorized path is
    differential-tested against.
    """
    global _vectorized
    previous = _vectorized
    _vectorized = bool(enabled)
    return previous


@contextmanager
def use_vectorized(enabled: bool = True) -> Iterator[None]:
    """Context manager pinning the vectorization switch within a block."""
    previous = set_vectorized(enabled)
    try:
        yield
    finally:
        set_vectorized(previous)


# -- kernel call accounting ------------------------------------------------

_registry: Optional[MetricsRegistry] = None


def instrument_kernels(
    registry: Optional[MetricsRegistry],
) -> Optional[MetricsRegistry]:
    """Install *registry* to receive kernel call counts; returns the old one.

    Counters are named ``kernels.<metric>.<path>_batches`` and
    ``kernels.<metric>.<path>_entries`` with ``<metric>`` one of
    ``dmin`` / ``dmm`` / ``dmax`` / ``pointdist`` and ``<path>`` either
    ``vector`` or ``scalar``.  Pass ``None`` to detach.
    """
    global _registry
    previous = _registry
    _registry = registry
    return previous


def record_kernel_use(metric: str, path: str, entries: int) -> None:
    """Count one batch of *entries* distance evaluations.

    The vectorized kernels call this themselves; the scalar fallbacks in
    :mod:`repro.core` call it explicitly so both paths are visible in
    the same registry.  A no-op until :func:`instrument_kernels`.
    """
    if _registry is None or entries == 0:
        return
    _registry.counter(f"kernels.{metric}.{path}_batches").inc()
    _registry.counter(f"kernels.{metric}.{path}_entries").inc(entries)


# -- kernels ---------------------------------------------------------------


def _as_matrices(
    point: Sequence[float], lows, highs
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    query = np.asarray(point, dtype=np.float64)
    low_m = np.asarray(lows, dtype=np.float64)
    high_m = np.asarray(highs, dtype=np.float64)
    if query.ndim != 1 or low_m.ndim != 2 or low_m.shape != high_m.shape:
        raise ValueError(
            f"expected a point and two (n, dims) corner matrices, got shapes "
            f"{query.shape}, {low_m.shape}, {high_m.shape}"
        )
    if query.shape[0] != low_m.shape[1]:
        raise ValueError(
            f"dimension mismatch: point {query.shape[0]}-d, "
            f"MBRs {low_m.shape[1]}-d"
        )
    return query, low_m, high_m


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Sum each row of *terms* left to right, as the scalar loops do.

    ``add.accumulate`` computes every prefix sum from the one before it,
    so its last column is ``((t0 + t1) + t2) + ...`` exactly.
    ``numpy.sum`` / ``add.reduce`` may reassociate instead.
    """
    return np.add.accumulate(terms, axis=1)[:, -1]


def batch_node_distances_sq(
    point, lows, highs, metrics: Sequence[str]
) -> List[np.ndarray]:
    """Squared ``Dmin`` / ``Dmm`` / ``Dmax`` from *point* to *n* MBRs at once.

    Returns one float64 array per name in *metrics* (from ``dmin`` /
    ``dmm`` / ``dmax``), in that order.  All of them derive from
    ``below = lows - point`` and ``above = point - highs``, whose squares
    are the scalar code's ``(p - lo)²`` and ``(p - hi)²``; the identities
    that make each metric bit-equal to :mod:`repro.core.distances` are in
    ``docs/performance.md``.
    """
    query, low_m, high_m = _as_matrices(point, lows, highs)
    below = low_m - query
    above = query - high_m
    if "dmm" in metrics or "dmax" in metrics:
        below_sq = below * below
        above_sq = above * above
    results = []
    for metric in metrics:
        if metric == "dmin":
            gap = np.maximum(np.maximum(below, above), 0.0)
            values = _row_sums(gap * gap)
        elif metric == "dmax":
            values = _row_sums(np.maximum(below_sq, above_sq))
        elif metric == "dmm":
            mid = (low_m + high_m) / 2.0
            near_sq = np.where(query <= mid, below_sq, above_sq)
            far_sq = np.where(query >= mid, below_sq, above_sq)
            far_total = _row_sums(far_sq)
            values = (far_total[:, None] - far_sq + near_sq).min(axis=1)
        else:
            raise ValueError(f"unknown distance metric: {metric!r}")
        record_kernel_use(metric, "vector", low_m.shape[0])
        results.append(values)
    return results


def batch_minimum_distance_sq(point, lows, highs) -> np.ndarray:
    """Batch twin of :func:`repro.core.distances.minimum_distance_sq`."""
    return batch_node_distances_sq(point, lows, highs, ("dmin",))[0]


def batch_maximum_distance_sq(point, lows, highs) -> np.ndarray:
    """Batch twin of :func:`repro.core.distances.maximum_distance_sq`."""
    return batch_node_distances_sq(point, lows, highs, ("dmax",))[0]


def batch_minmax_distance_sq(point, lows, highs) -> np.ndarray:
    """Batch twin of :func:`repro.core.distances.minmax_distance_sq`."""
    return batch_node_distances_sq(point, lows, highs, ("dmm",))[0]


def batch_point_distance_sq(point, points) -> np.ndarray:
    """Squared Euclidean distance from *point* to each row of *points*.

    Exact batch twin of
    :func:`repro.geometry.point.squared_euclidean` — this is the leaf
    scan kernel, where ``points`` is the cached low-corner matrix of a
    leaf node (degenerate MBRs: low == high == the data point).
    """
    query = np.asarray(point, dtype=np.float64)
    matrix = np.asarray(points, dtype=np.float64)
    if query.ndim != 1 or matrix.ndim != 2:
        raise ValueError(
            f"expected a point and an (n, dims) matrix, got shapes "
            f"{query.shape}, {matrix.shape}"
        )
    if query.shape[0] != matrix.shape[1]:
        raise ValueError(
            f"dimension mismatch: {query.shape[0]} vs {matrix.shape[1]}"
        )
    diff = query - matrix
    record_kernel_use("pointdist", "vector", matrix.shape[0])
    return _row_sums(diff * diff)
