"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: while a
:class:`Tracing` context is active it replaces the public functions of
each layer (tree insert, placement policy, search coroutines, engine
processes, serving broker and admission, observers) with wrappers that
time every call or coroutine step.  Nothing under ``src/`` changes, and
leaving the context restores every original attribute.

A span's *self time* is its duration minus the time its child spans
cover.  Calls are strictly nested (the program is single-threaded and
coroutine steps run to their next ``yield``), so a stack gives exact
self times online: per-layer totals are kept for every span, while only
the first ``cap`` spans are kept whole for the Chrome trace.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class SpanRecorder:
    """Nested wall-clock spans with per-layer self-time accounting.

    :param cap: spans kept whole for the Chrome trace, per phase; later
        spans still count towards every total.
    """

    def __init__(self, cap: int = 20_000):
        self.cap = cap
        self.origin = _clock()
        #: Open spans: ``[layer, name, start, child_time, span_id, qid]``.
        self._stack: List[list] = []
        self._next_id = 1
        #: ``phase -> layer -> seconds`` of self time.
        self.self_time: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        #: ``phase -> layer -> spans closed``.
        self.spans: Dict[str, Counter] = defaultdict(Counter)
        #: ``phase -> counter name -> count`` of events counted without a span.
        self.counts: Dict[str, Counter] = defaultdict(Counter)
        #: ``phase -> key -> [durations]`` for spans whose percentiles matter.
        self.durations: Dict[str, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(list)
        )
        #: ``phase -> qid -> seconds`` inside search-coroutine steps.
        self.search_time: Dict[str, Dict[int, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.phase = "setup"
        #: Query id -> name of the search algorithm that answered it.
        self.query_algorithm: Dict[int, str] = {}
        #: Whole spans for the trace: ``(layer, name, start, dur, id, parent, qid)``.
        self.kept: List[Tuple] = []
        self._kept_in_phase: Counter = Counter()
        self.dropped = 0

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    @property
    def current_qid(self) -> Optional[int]:
        """The query id of the innermost open span (``None`` outside queries)."""
        return self._stack[-1][5] if self._stack else None

    def begin(self, layer: str, name: str, qid: Optional[int] = None) -> None:
        """Open a span; it inherits the enclosing span's query id."""
        if qid is None and self._stack:
            qid = self._stack[-1][5]
        self._stack.append([layer, name, _clock(), 0.0, self._next_id, qid])
        self._next_id += 1

    def end(self) -> float:
        """Close the innermost span; returns its duration."""
        now = _clock()
        layer, name, start, child, span_id, qid = self._stack.pop()
        duration = now - start
        phase = self.phase
        self.self_time[phase][layer] += duration - child
        self.spans[phase][layer] += 1
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][4]
        if self._kept_in_phase[phase] < self.cap:
            self._kept_in_phase[phase] += 1
            self.kept.append(
                (layer, name, start - self.origin, duration, span_id, parent, qid)
            )
        else:
            self.dropped += 1
        return duration

    def chrome_trace(self) -> Dict[str, object]:
        """The kept spans as a Chrome trace-event document."""
        events: List[Dict[str, object]] = [
            {"ph": "M", "pid": 1, "name": "process_name",
             "args": {"name": "perfbench"}},
            {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
             "args": {"name": "benchmark"}},
        ]
        for layer, name, start, duration, span_id, parent, qid in self.kept:
            args: Dict[str, object] = {"id": span_id, "parent": parent}
            if qid is not None:
                args["qid"] = qid
            events.append({
                "ph": "X", "pid": 1, "tid": 1, "cat": layer, "name": name,
                "ts": start * 1e6, "dur": duration * 1e6, "args": args,
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"spans_dropped": self.dropped},
        }

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


def traced_call(recorder: SpanRecorder, layer: str, fn: Callable) -> Callable:
    """Wrap *fn* so each call is one span."""
    label = fn.__qualname__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.begin(layer, label)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end()

    return wrapper


def traced_generator(recorder: SpanRecorder, layer: str, name: str, gen,
                     qid: Optional[int] = None, search: bool = False):
    """Drive *gen*, timing each step (up to its next ``yield``) as one span.

    Values sent, exceptions thrown and ``close()`` are forwarded, so the
    wrapper is transparent to engine processes and ``yield from``.
    With *search* set, step durations also accrue to the query's search
    time.
    """
    value = None
    error: Optional[BaseException] = None
    while True:
        recorder.begin(layer, name, qid)
        try:
            item = gen.throw(error) if error is not None else gen.send(value)
        except StopIteration as stop:
            _end_step(recorder, search)
            return stop.value
        except BaseException:
            _end_step(recorder, search)
            raise
        _end_step(recorder, search)
        error = None
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as thrown:  # forwarded into gen on the next step
            error = thrown


def _end_step(recorder: SpanRecorder, search: bool) -> None:
    qid = recorder.current_qid
    duration = recorder.end()
    if search and qid is not None:
        recorder.search_time[recorder.phase][qid] += duration


_TRACED_CODE = traced_generator.__code__


def is_traced(gen) -> bool:
    return getattr(gen, "gi_code", None) is _TRACED_CODE


def layer_of_module(module: str) -> str:
    """Map a ``repro`` module name to the benchmark's layer name."""
    for prefix, layer in _MODULE_LAYERS:
        if module.startswith(prefix):
            return layer
    return module.split(".")[1] if module.startswith("repro.") else "bench"


#: Most specific prefix first.
_MODULE_LAYERS = (
    ("repro.simulation.updates", "updates"),
    ("repro.simulation.locks", "updates"),
    ("repro.simulation", "simulation"),
    ("repro.serving.frontend", "serving.frontend"),
    ("repro.serving.admission", "serving.admission"),
    ("repro.serving.batcher", "serving.broker"),
    ("repro.extensions.raid1", "raid1"),
    ("repro.faults", "faults.health"),
    ("repro.core", "core"),
    ("repro.rtree", "rtree"),
    ("repro.parallel", "parallel"),
    ("repro.datasets", "datasets"),
    ("repro.obs", "obs"),
)


class Tracing:
    """Context manager installing the span wrappers; restores on exit."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def patch(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def patch_methods(self, cls, layer: str) -> None:
        """Wrap every public plain method defined on *cls*."""
        for attribute, value in list(vars(cls).items()):
            if not attribute.startswith("_") and inspect.isfunction(value):
                self.patch(cls, attribute, traced_call(self.recorder, layer, value))

    def _generator_method(self, layer: str, fn: Callable) -> Callable:
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return traced_generator(
                recorder, layer, fn.__qualname__, fn(*args, **kwargs)
            )

        return wrapper

    def __enter__(self) -> "Tracing":
        from repro.core.executor import CountingExecutor
        from repro.extensions.raid1 import MirroredDiskArraySystem
        from repro.faults.health import DiskHealthMonitor
        from repro.obs import lifecycle, metrics, slo, timeline, trace
        from repro.parallel.declustering import ProximityIndex
        from repro.rtree.tree import RStarTree
        from repro.serving.admission import AdmissionController
        from repro.serving.batcher import FetchBroker
        from repro.simulation.engine import Environment
        from repro.simulation.locks import ReadWriteLock
        from repro.simulation.system import DiskArraySystem

        recorder = self.recorder
        self._patch_insert(RStarTree)
        self.patch(ProximityIndex, "choose_disk", traced_call(
            recorder, "parallel", ProximityIndex.choose_disk))
        self.patch(CountingExecutor, "execute", traced_call(
            recorder, "core", CountingExecutor.execute))
        self._patch_engine(Environment)
        for system, layer in ((DiskArraySystem, "simulation"),
                              (MirroredDiskArraySystem, "raid1")):
            for attribute in ("fetch_page", "fetch_group"):
                self.patch(system, attribute, self._generator_method(
                    layer, system.__dict__[attribute]))
        self._patch_lock(ReadWriteLock)
        self.patch(FetchBroker, "submit", traced_call(
            recorder, "serving.broker", FetchBroker.submit))
        for attribute in ("offer", "pop_next"):
            self.patch(AdmissionController, attribute, traced_call(
                recorder, "serving.admission",
                AdmissionController.__dict__[attribute]))
        self.patch_methods(DiskHealthMonitor, "faults.health")
        for cls, layer in (
            (trace.Tracer, "obs.tracer"),
            (metrics.Counter, "obs.metrics"),
            (metrics.Gauge, "obs.metrics"),
            (metrics.Histogram, "obs.metrics"),
            (metrics.MetricsRegistry, "obs.metrics"),
            (timeline.TimelineTrack, "obs.timeline"),
            (timeline.TimelineSampler, "obs.timeline"),
            (lifecycle.LifecycleLog, "obs.lifecycle"),
            (slo.SLOTracker, "obs.slo"),
        ):
            self.patch_methods(cls, layer)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    # -- layer-specific wrappers ---------------------------------------------

    def _patch_insert(self, tree_cls) -> None:
        """Tree inserts: ``rtree`` while building, ``updates`` during a run."""
        recorder = self.recorder
        insert = tree_cls.insert

        @functools.wraps(insert)
        def wrapper(tree, *args, **kwargs):
            layer = "rtree" if recorder.phase == "setup" else "updates.insert"
            recorder.begin(layer, "RStarTree.insert")
            try:
                return insert(tree, *args, **kwargs)
            finally:
                duration = recorder.end()
                recorder.durations[recorder.phase]["insert"].append(duration)

        self.patch(tree_cls, "insert", wrapper)

    def _patch_engine(self, env_cls) -> None:
        """Engine loop span, counted event creation, traced processes."""
        recorder = self.recorder
        counts = recorder.counts
        self.patch(env_cls, "run", traced_call(recorder, "simulation", env_cls.run))
        for attribute in ("timeout", "event"):
            original = env_cls.__dict__[attribute]

            def counted(*args, _original=original, **kwargs):
                counts[recorder.phase]["events"] += 1
                return _original(*args, **kwargs)

            self.patch(env_cls, attribute, functools.wraps(original)(counted))
        process = env_cls.process

        @functools.wraps(process)
        def traced_process(env, generator):
            counts[recorder.phase]["events"] += 1
            if not is_traced(generator):
                code = generator.gi_code
                module = generator.gi_frame.f_globals.get("__name__", "")
                # A process started inside a query's span belongs to it.
                qid = _qid_from_frame(generator.gi_frame.f_locals)
                generator = traced_generator(
                    recorder, layer_of_module(module),
                    getattr(code, "co_qualname", code.co_name), generator,
                    qid=recorder.current_qid if qid is None else qid,
                )
            return process(env, generator)

        self.patch(env_cls, "process", traced_process)

    def _patch_lock(self, lock_cls) -> None:
        """Record each latch request's simulated wait until its grant."""
        recorder = self.recorder
        for attribute in ("acquire_read", "acquire_write"):
            original = lock_cls.__dict__[attribute]

            def acquire(lock, _original=original):
                requested = lock.env.now
                event = _original(lock)
                waits = recorder.durations[recorder.phase]["lock_wait"]
                event.callbacks.append(
                    lambda fired: waits.append(fired.env.now - requested)
                )
                return event

            self.patch(lock_cls, attribute, functools.wraps(original)(acquire))


def _qid_from_frame(local_vars) -> Optional[int]:
    qid = local_vars.get("qid")
    if isinstance(qid, int):
        return qid
    entry = local_vars.get("entry")
    qid = getattr(entry, "qid", None)
    return qid if isinstance(qid, int) else None
