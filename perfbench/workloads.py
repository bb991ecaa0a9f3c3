"""The benchmark's three workloads and the correctness gate on their answers.

Each workload builds numbered *input sets* from the seed (:meth:`setup`,
timed as ``setup_s``): set ``i`` draws its data, queries, arrivals and
fault draws from :func:`input_seed`, so several sets average over more
independent inputs than one.  A *pass* (:meth:`run_pass`) runs the
measured work on one set and returns the work it did, a fingerprint of
every deterministic output, and what the gate needs to check its answers.
Verification happens outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core import CountingExecutor
from repro.datasets import gaussian, sample_queries, uniform
from repro.experiments.setup import make_factory
from repro.faults.health import HealthPolicy, HedgePolicy
from repro.faults.plan import FaultPlan, SlowWindow
from repro.faults.policy import RetryPolicy
from repro.obs import MetricsRegistry, TimelineSampler, Tracer
from repro.obs.lifecycle import LifecycleLog
from repro.obs.openmetrics import flatten_scalars, render_openmetrics
from repro.obs.report import build_run_report
from repro.obs.slo import SLOTracker, slo_from_policy
from repro.parallel import build_parallel_tree
from repro.parallel.declustering import ProximityIndex
from repro.rtree.validate import check_invariants
from repro.serving import make_scenario, serve_scenario
from repro.serving.admission import full_serving_policy
from repro.simulation.parameters import SystemParameters
from repro.simulation.updates import simulate_mixed_workload

from spans import traced_generator

_clock = time.perf_counter

#: Absolute tolerance when comparing an answer distance with numpy's.
TOLERANCE = 1e-9

GENERATORS = {"uniform": uniform, "gaussian": gaussian}


class GateError(Exception):
    """An answer, tree or repeat broke the benchmark's correctness gate."""


@contextlib.contextmanager
def span(recorder, layer: str, name: str, qid: Optional[int] = None):
    """One span around a block when tracing; nothing otherwise."""
    if recorder is None:
        yield
        return
    recorder.begin(layer, name, qid)
    try:
        yield
    finally:
        recorder.end()


def traced_factory(factory, recorder, qids: Dict[int, int]):
    """Wrap an algorithm factory so each search coroutine step is a span.

    *qids* maps ``id(query point)`` to the query id the spans carry.
    """

    def build(query):
        qid = qids.get(id(query), recorder.current_qid)
        with span(recorder, "core", "factory", qid):
            algorithm = factory(query)
        run, name = algorithm.run, algorithm.name
        recorder.query_algorithm[qid] = name
        algorithm.run = lambda root: traced_generator(
            recorder, "core", name, run(root), qid=qid, search=True
        )
        return algorithm

    return build


# -- shared helpers -----------------------------------------------------------


def input_seed(seed: int, index: int) -> int:
    """Base seed of input set *index*; each set uses it and the next two."""
    return 100 * seed + 10 * index


def generate(config: dict, n: int, seed: int):
    return GENERATORS[config["dataset"]](n=n, dims=config["dims"], seed=seed)


class ProbedProximityIndex(ProximityIndex):
    """Proximity Index that lets the speed probe run between placements."""

    def __init__(self, probe):
        super().__init__()
        self.probe = probe

    def choose_disk(self, context) -> int:
        self.probe.maybe()
        return super().choose_disk(context)


def probed_factory(factory, probe):
    """Let the speed probe run before building each query's algorithm."""

    def build(query):
        probe.maybe()
        return factory(query)

    return build


def build_tree(data, config: dict, seed: int, probe=None):
    return build_parallel_tree(
        data,
        dims=config["dims"],
        num_disks=config["disks"],
        policy=ProximityIndex() if probe is None else ProbedProximityIndex(probe),
        seed=seed,
        page_size=config["page_size"],
    )


def tree_digest(tree) -> str:
    """Hash of the tree's pages, entries and placement."""
    digest = hashlib.sha256()
    for page_id in sorted(tree.tree.pages):
        node = tree.tree.pages[page_id]
        digest.update(
            f"{page_id}:{node.level}:{tree.disk_of(page_id)}:"
            f"{tree.cylinder_of(page_id)}:".encode()
        )
        if node.is_leaf:
            for entry in node.entries:
                digest.update(f"{entry.oid}@{entry.point!r};".encode())
        else:
            for child in node.entries:
                digest.update(f"{child.page_id};".encode())
    return digest.hexdigest()


def tree_shape(tree) -> Dict[str, float]:
    """Deterministic shape figures of a built tree."""
    pages = tree.tree.pages
    entries = sum(len(node.entries) for node in pages.values())
    per_disk = tree.placement_histogram()
    counts = [per_disk.get(d, 0) for d in range(tree.num_disks)]
    return {
        "rtree.pages": len(pages),
        "rtree.height": tree.height,
        "rtree.fill": entries / (len(pages) * tree.tree.max_entries),
        "parallel.disk_skew": max(counts) / statistics.fmean(counts),
    }


def check_tree(tree, expected: int) -> None:
    try:
        count = check_invariants(tree.tree)
    except AssertionError as error:
        raise GateError(f"tree invariant broken: {error}") from error
    if count != expected or len(tree) != expected:
        raise GateError(f"tree holds {len(tree)} objects, expected {expected}")


def knn_distances(points: np.ndarray, query, k: int) -> np.ndarray:
    """Brute-force distances of the *k* nearest points, ascending."""
    distances = np.sqrt(((points - np.asarray(query)) ** 2).sum(axis=1))
    k = min(k, len(distances))
    return np.sort(np.partition(distances, k - 1)[:k])


def check_neighbors(points: np.ndarray, query, answers, what: str) -> np.ndarray:
    """Answers are sorted and each distance is that of its own point."""
    got = np.array([a.distance for a in answers])
    if len(got) and np.any(np.diff(got) < 0):
        raise GateError(f"{what}: answers not sorted by distance")
    for answer in answers:
        if not 0 <= answer.oid < len(points):
            raise GateError(f"{what}: unknown object id {answer.oid}")
        true = math.dist(points[answer.oid], query)
        if abs(true - answer.distance) > TOLERANCE:
            raise GateError(
                f"{what}: object {answer.oid} reported at {answer.distance}, "
                f"lies at {true}"
            )
    return got


def check_exact(points, query, answers, k: int, what: str) -> None:
    got = check_neighbors(points, query, answers, what)
    want = knn_distances(points, query, k)
    if len(got) != len(want) or np.any(np.abs(got - want) > TOLERANCE):
        raise GateError(f"{what}: answer differs from brute-force kNN")


def check_certified(points, query, answers, k: int, radius: float, what: str) -> None:
    """Exact for every rank whose true distance is inside *radius*."""
    got = check_neighbors(points, query, answers, what)
    want = knn_distances(points, query, k)
    inside = int(np.searchsorted(want, radius - TOLERANCE, side="left"))
    if len(got) < inside or np.any(np.abs(got[:inside] - want[:inside]) > TOLERANCE):
        raise GateError(f"{what}: answer not exact within radius {radius}")
    if np.any(got + TOLERANCE < want[: len(got)]):
        raise GateError(f"{what}: answer closer than brute force")


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def digest_of(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
    return digest.hexdigest()


@dataclass
class PassResult:
    """What one pass of a measured phase did and produced."""

    #: Wall seconds of the measured work.
    seconds: float
    #: Operations settled.
    ops: int
    #: Deterministic outputs: must be equal on every pass of a seed.
    fingerprint: Dict[str, object]
    #: Per-operation wall seconds, where one caller times each operation.
    latencies: Sequence[float] = ()
    #: What the correctness gate checks.
    payload: object = None
    #: Simulated response times by kind, pooled over input sets for percentiles.
    samples: Dict[str, Sequence[float]] = field(default_factory=dict)


class Workload:
    """A workload's configuration and the run's seed."""

    #: True when a pass mutates its input set, so each pass needs a fresh build.
    fresh_state = False
    #: Config fields the code hard-codes, with the one value it runs.
    fixed: Dict[str, object] = {"declustering": "proximity", "layout": "pointer"}
    #: Per-layer percentile metrics over samples pooled from every input
    #: set: ``metric -> (sample kind, fraction)``.
    percentiles: Dict[str, tuple] = {}
    #: Layers the traced run must find unused: any time or count there fails it.
    idle_layers: tuple = ()

    def __init__(self, config: dict, seed: int):
        for name, value in self.fixed.items():
            if config.get(name) != value:
                raise ValueError(
                    f"config {name} is {config.get(name)!r}; the workload runs {value!r}"
                )
        self.config, self.seed = config, seed

    def layer_figures(self, fingerprint) -> Dict[str, float]:
        """The pass fingerprint's per-layer figures."""
        return {k: v for k, v in fingerprint.items() if "." in k}


# -- paper-knn-5d --------------------------------------------------------------


class PaperKnn(Workload):
    """Incremental 5-d build, then the paper's four searches, closed loop."""

    fixed = {**Workload.fixed, "executor": "CountingExecutor"}
    idle_layers = ("simulation", "updates", "serving", "raid1", "faults", "obs")

    def setup(self, index: int, recorder=None, probe=None):
        config, seed = self.config, input_seed(self.seed, index)
        with span(recorder, "datasets", "generate"):
            data = generate(config, config["n"], seed)
            queries = sample_queries(data, config["queries"], seed=seed + 1)
        tree = build_tree(data, config, seed, probe)
        return {"seed": seed, "data": data, "queries": queries, "tree": tree}

    def check_setup(self, state) -> Dict[str, object]:
        check_tree(state["tree"], self.config["n"])
        return {"tree": tree_digest(state["tree"]), **tree_shape(state["tree"])}

    def run_pass(self, state, recorder=None, probe=None) -> PassResult:
        """Every (query, algorithm) job of the input set once, in turn."""
        config, tree, queries = self.config, state["tree"], state["queries"]
        factories = {
            name: make_factory(name, tree, config["k"])
            for name in config["algorithms"]
        }
        if recorder is not None:
            factories = {
                name: traced_factory(factory, recorder, {})
                for name, factory in factories.items()
            }
        jobs = [
            (algorithm, qi)
            for qi in range(len(queries))
            for algorithm in config["algorithms"]
        ]
        executor = CountingExecutor(tree)
        answers, stats, latencies = [], [], []
        start = _clock()
        for index, (algorithm, qi) in enumerate(jobs):
            if probe is not None:
                probe.maybe()
            if recorder is not None:
                recorder.begin("bench", "query", index)
            began = _clock()
            answers.append(executor.execute(factories[algorithm](queries[qi])))
            latencies.append(_clock() - began)
            if recorder is not None:
                recorder.end()
            last = executor.last_stats
            stats.append((last.nodes_visited, last.rounds))
        elapsed = _clock() - start

        per_algorithm: Dict[str, Dict[str, float]] = {}
        for name in config["algorithms"]:
            picked = [s for (a, _), s in zip(jobs, stats) if a == name]
            per_algorithm[name] = {
                "nodes": statistics.fmean(s[0] for s in picked),
                "rounds": statistics.fmean(s[1] for s in picked),
            }
        optimal = per_algorithm["WOPTSS"]["nodes"]
        for values in per_algorithm.values():
            values["useful_ratio"] = optimal / values["nodes"]
        fingerprint = {
            "answers": digest_of(*[
                [(n.oid, n.distance) for n in answer] for answer in answers
            ]),
            "nodes_per_query": statistics.fmean(s[0] for s in stats),
            # Fault-free searches; the gate checks every answer is exact.
            "exact_frac": 1.0,
            "algorithms": per_algorithm,
        }
        return PassResult(elapsed, len(jobs), fingerprint, latencies,
                          payload=(jobs, answers))

    def verify(self, state, payload) -> None:
        jobs, answers = payload
        points = np.asarray(state["data"])
        for (algorithm, qi), answer in zip(jobs, answers):
            check_exact(points, state["queries"][qi], answer, self.config["k"],
                        f"{algorithm} query {qi}")

    def layer_figures(self, fingerprint) -> Dict[str, float]:
        figures: Dict[str, float] = {}
        for name, values in fingerprint["algorithms"].items():
            for key, value in values.items():
                figures[f"core.{name.lower()}_{key}"] = value
        return figures


# -- serve-chaos-2d --------------------------------------------------------------


class ServeChaos(Workload):
    """Bursty traffic through the full serving stack on a faulty RAID-1 array."""

    fixed = {
        **Workload.fixed,
        "observers": ["Tracer", "MetricsRegistry", "TimelineSampler",
                      "LifecycleLog", "SLOTracker", "RunReport", "OpenMetrics"],
    }

    def setup(self, index: int, recorder=None, probe=None):
        config, seed = self.config, input_seed(self.seed, index)
        with span(recorder, "datasets", "generate"):
            data = generate(config, config["n"], seed)
        tree = build_tree(data, config, seed, probe)
        with span(recorder, "datasets", "make_scenario"):
            scenario = make_scenario(
                config["scenario"], data, rate=config["rate"],
                horizon=config["horizon"], seed=seed + 1,
                burst_factor=config["burst_factor"],
            )
        return {"seed": seed, "data": data, "tree": tree, "scenario": scenario}

    def check_setup(self, state) -> Dict[str, object]:
        check_tree(state["tree"], self.config["n"])
        scenario = state["scenario"]
        return {
            "tree": tree_digest(state["tree"]),
            "scenario": digest_of(scenario.queries, scenario.arrival_times),
            **tree_shape(state["tree"]),
        }

    def _fault_plan(self, seed: int) -> FaultPlan:
        faults = self.config["faults"]
        until = self.config["horizon"] * 5.0
        return FaultPlan(
            seed=seed + 2,
            default_transient_prob=faults["transient_prob"],
            slow_windows=tuple(
                SlowWindow(drive, 0.0, until, faults["slow_factor"])
                for drive in faults["slow_drives"]
            ),
        )

    def run_pass(self, state, recorder=None, probe=None) -> PassResult:
        """Serve the whole scenario once with every observer attached."""
        config, tree, scenario = self.config, state["tree"], state["scenario"]
        start = _clock()
        policy = full_serving_policy(**config["policy"])
        factory = make_factory(config["algorithm"], tree, config["k"])
        if probe is not None:
            factory = probed_factory(factory, probe)
        if recorder is not None:
            qids = {id(q): i for i, q in enumerate(scenario.queries)}
            factory = traced_factory(factory, recorder, qids)
        tracer, metrics, timeline = Tracer(), MetricsRegistry(), TimelineSampler()
        lifecycle = LifecycleLog()
        slo = SLOTracker(slo_from_policy(policy))
        faults = config["faults"]
        serving = serve_scenario(
            tree, factory, scenario, policy=policy,
            params=SystemParameters(coalesce=config["coalesce"]),
            seed=state["seed"], tracer=tracer, metrics=metrics,
            timeline=timeline, fault_plan=self._fault_plan(state["seed"]),
            retry_policy=RetryPolicy(
                max_attempts=faults["max_attempts"],
                attempt_timeout=faults["attempt_timeout"],
            ),
            raid=config["raid"],
            health=HealthPolicy(**config["health"]),
            hedge=HedgePolicy(**config["hedge"]),
            lifecycle=lifecycle, slo=slo,
        )
        with span(recorder, "obs.report", "report"):
            slo.merge_into(timeline)
            section = serving.serving_section()
            report = build_run_report(
                "serve", config, serving.result, metrics=metrics,
                timeline=timeline, label=f"{config['algorithm']}/{policy.name}",
                serving=section, health=serving.health, hedge=serving.hedge,
                slo=serving.slo,
            )
            extra = flatten_scalars({"serving": section})
            extra.update(flatten_scalars({"slo": serving.slo}))
            exposition = render_openmetrics(metrics, extra=extra)
            lifecycle_jsonl = lifecycle.to_jsonl()
        elapsed = _clock() - start

        queries = serving.queries
        outcomes = Counter(q.outcome for q in queries)
        records = [q.record for q in queries if q.record is not None]
        hedge, health = serving.hedge, serving.health
        fingerprint = {
            "answers": digest_of(*[
                (q.qid, q.outcome, q.certified_radius,
                 [(n.oid, n.distance) for n in q.answers])
                for q in queries
            ]),
            "artifacts": digest_of(
                json.dumps(report, sort_keys=True), exposition, lifecycle_jsonl
            ),
            "nodes_per_query": statistics.fmean(r.pages_fetched for r in records),
            "exact_frac": outcomes["complete"] / len(queries),
            "outcomes": dict(sorted(outcomes.items())),
            "simulation.query_p50_s": section["latency"]["p50"],
            "simulation.query_p99_s": section["latency"]["p99"],
            "simulation.disk_util_max": max(serving.result.disk_utilizations),
            "simulation.queue_wait_share": queue_wait_share(records),
            "core.crss_nodes": statistics.fmean(r.pages_fetched for r in records),
            "core.crss_rounds": statistics.fmean(r.rounds for r in records),
            "serving.tx_per_page": serving.transactions_per_page,
            "serving.shared_pages": serving.batching["shared_pages"],
            "serving.admission_wait_p99_s": nearest_rank(
                [q.admission_wait for q in queries], 0.99
            ),
            "serving.peak_queued": serving.peak_queued,
            "faults.retries": serving.result.total_retries,
            "faults.failovers": serving.result.total_failovers,
            "faults.hedges_issued": hedge["issued"],
            "faults.hedge_win_ratio": (
                hedge["won"] / hedge["issued"] if hedge["issued"] else 0.0
            ),
            "faults.wasted_reads": hedge["wasted_reads"],
            "faults.ejected": health["ejected"],
        }
        return PassResult(elapsed, len(queries), fingerprint, payload=queries)

    def verify(self, state, queries) -> None:
        points = np.asarray(state["data"])
        k = self.config["k"]
        scenario = state["scenario"]
        if len(queries) != len(scenario.queries):
            raise GateError("some offered queries never settled")
        for served in queries:
            query = scenario.queries[served.qid]
            what = f"query {served.qid} ({served.outcome})"
            if served.outcome == "complete":
                check_exact(points, query, served.answers, k, what)
            elif served.outcome == "degraded":
                if not served.certified_radius < math.inf:
                    raise GateError(f"{what}: degraded without a finite radius")
                check_certified(points, query, served.answers, k,
                                served.certified_radius, what)
            elif served.outcome in ("shed", "rejected"):
                if served.answers or served.certified_radius != 0.0:
                    raise GateError(f"{what}: must be empty, certified to radius 0")
            else:
                raise GateError(f"{what}: unknown outcome")


def queue_wait_share(records) -> float:
    """Share of simulated response time spent queued at the disks."""
    total = math.fsum(r.response_time for r in records)
    return math.fsum(r.breakdown.queue_wait for r in records) / total


# -- mixed-rw-2d ------------------------------------------------------------------


class MixedReadWrite(Workload):
    """Poisson queries and inserts on one RAID-0 tree under the latch."""

    #: The pass inserts into the tree, so every pass needs a fresh one.
    fresh_state = True
    fixed = {**Workload.fixed, "raid": "raid0"}
    percentiles = {
        "simulation.query_p50_s": ("queries", 0.50),
        "simulation.query_p99_s": ("queries", 0.99),
        "updates.p50_s": ("updates", 0.50),
        "updates.p95_s": ("updates", 0.95),
    }

    def setup(self, index: int, recorder=None, probe=None):
        config, seed = self.config, input_seed(self.seed, index)
        with span(recorder, "datasets", "generate"):
            data = generate(config, config["n"], seed)
            queries = sample_queries(data, config["queries"], seed=seed + 1)
            inserts = generate(config, config["inserts"], seed + 2)
        tree = build_tree(data, config, seed, probe)
        return {"seed": seed, "data": data, "queries": queries,
                "inserts": inserts, "tree": tree}

    def check_setup(self, state) -> Dict[str, object]:
        check_tree(state["tree"], self.config["n"])
        return {"tree": tree_digest(state["tree"]), **tree_shape(state["tree"])}

    def run_pass(self, state, recorder=None, probe=None) -> PassResult:
        """Simulate the whole query and insert mix once on the set's tree."""
        config, tree = self.config, state["tree"]
        queries, inserts = state["queries"], state["inserts"]
        start = _clock()
        factory = make_factory(config["algorithm"], tree, config["k"])
        if probe is not None:
            factory = probed_factory(factory, probe)
        if recorder is not None:
            qids = {id(q): i for i, q in enumerate(queries)}
            factory = traced_factory(factory, recorder, qids)
        result = simulate_mixed_workload(
            tree, factory, queries, inserts,
            query_rate=config["query_rate"], insert_rate=config["insert_rate"],
            seed=state["seed"],
        )
        elapsed = _clock() - start

        records = result.queries.records
        updates = result.updates
        fingerprint = {
            "answers": digest_of(*[
                (r.query, r.arrival, r.completion,
                 [(n.oid, n.distance) for n in r.answers])
                for r in records
            ]),
            "updates": digest_of(*[
                (u.point, u.arrival, u.completion, u.pages_created) for u in updates
            ]),
            "tree": tree_digest(tree),
            "nodes_per_query": statistics.fmean(r.pages_fetched for r in records),
            "exact_frac": (
                sum(r.complete for r in records) + len(updates)
            ) / (len(queries) + len(inserts)),
            "simulation.disk_util_max": max(result.queries.disk_utilizations),
            "simulation.queue_wait_share": queue_wait_share(records),
            "core.crss_nodes": statistics.fmean(r.pages_fetched for r in records),
            "core.crss_rounds": statistics.fmean(r.rounds for r in records),
            "updates.splits": sum(u.pages_created for u in updates),
        }
        samples = {
            "queries": [r.response_time for r in records],
            "updates": [u.response_time for u in updates],
        }
        return PassResult(elapsed, len(records) + len(updates), fingerprint,
                          payload=(records, updates), samples=samples)

    def verify(self, state, payload) -> None:
        """Answers lie between kNN over the base set and over base + inserts."""
        records, updates = payload
        config = self.config
        n, k = config["n"], config["k"]
        if len(records) != len(state["queries"]) or len(updates) != len(state["inserts"]):
            raise GateError("some operations never completed")
        check_tree(state["tree"], n + len(state["inserts"]))
        base = np.asarray(state["data"])
        everything = np.concatenate([base, np.asarray(state["inserts"])])
        for index, record in enumerate(records):
            what = f"mixed query {index}"
            if not record.complete:
                raise GateError(f"{what}: incomplete answer")
            got = check_neighbors(everything, record.query, record.answers, what)
            low = knn_distances(everything, record.query, k)
            high = knn_distances(base, record.query, k)
            if (
                len(got) != k
                or np.any(got + TOLERANCE < low)
                or np.any(got - TOLERANCE > high)
            ):
                raise GateError(f"{what}: answer outside the base/all-inserts bounds")


WORKLOADS = {
    "paper-knn-5d": PaperKnn,
    "serve-chaos-2d": ServeChaos,
    "mixed-rw-2d": MixedReadWrite,
}
