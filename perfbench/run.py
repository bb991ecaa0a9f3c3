"""Wall-clock benchmark of the library on three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-knn-5d --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same phases untraced and then traced, and reports
the per-layer metrics.  Every answer passes the correctness gate in
``workloads.py``; any violation, or any deterministic output that differs
between repeats of the seed, makes the run exit non-zero.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Workload configurations, their loop types
and the metric predictions are in ``workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict

from probe import REFERENCE_SECONDS, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_clock = time.perf_counter

#: Independent input sets a run builds from its seed.
INPUT_SETS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Runs one workload's input sets and measured passes for one seed."""

    def __init__(self, workload, seconds: float, gate_error):
        self.workload = workload
        #: The exception class a correctness-gate violation raises.
        self.gate_error = gate_error
        self.sets = INPUT_SETS
        self.seconds = seconds
        #: Calibrates untraced timings to reference seconds (``probe.py``).
        self.probe = SpeedProbe()
        #: Reference seconds per wall second over the last untraced passes.
        self.run_scale = 1.0
        #: Built input sets not yet consumed by a pass that mutates them.
        self.states: Dict[int, object] = {}
        #: Deterministic outputs of each input set's build and first pass.
        self.setup_fingerprints: Dict[int, dict] = {}
        self.pass_fingerprints: Dict[int, dict] = {}
        #: Simulated response times of each input set's first pass, by kind.
        self.pass_samples: Dict[int, dict] = {}
        #: Operations per wall second of each untraced pass, by input set.
        self.raw_rates: Dict[int, list] = {}

    def setup(self, index: int, recorder=None) -> float:
        """Build input set *index*; returns its build time.

        An untraced build runs between speed probes and takes reference
        seconds; a traced one takes wall seconds.  A rebuilt set must
        reproduce its first build exactly.
        """
        probe = self.probe if recorder is None else None
        if probe is not None:
            first = len(probe.samples)
            probe.run()
            spent = probe.spent
        start = _clock()
        state = self.workload.setup(index, recorder, probe)
        elapsed = _clock() - start
        if probe is not None:
            elapsed -= probe.spent - spent
            probe.run()
            elapsed *= probe.scale(first)
        fingerprint = self.workload.check_setup(state)
        if self.setup_fingerprints.setdefault(index, fingerprint) != fingerprint:
            raise self.gate_error(f"input set {index} built differently twice")
        self.states[index] = state
        return elapsed

    def take(self, index: int):
        """Input set *index* for a pass; a pass that mutates it gets a fresh build."""
        if index not in self.states:
            self.setup(index)
        if self.workload.fresh_state:
            return self.states.pop(index)
        return self.states[index]

    def run_passes(self, recorder=None):
        """Measured passes; returns ``(ops, seconds, latencies, root_seconds)``.

        Untraced: one pass per input set, then repeat passes cycling from
        set 0 (at least one) until ``--seconds`` of work are done, between
        speed probes, in reference seconds.  Traced: one pass on set 0, in
        wall seconds.  A set's first pass is checked by the gate; every
        repeat must reproduce its fingerprint exactly.
        """
        probe = self.probe if recorder is None else None
        if probe is not None:
            first = len(probe.samples)
            probe.run()
        ops, seconds, latencies, root = 0, 0.0, [], 0.0
        passes = 0
        while True:
            index = passes % self.sets
            state = self.take(index)
            spent = probe.spent if probe is not None else 0.0
            if recorder is not None:
                recorder.begin("bench", "pass")
            result = self.workload.run_pass(state, recorder, probe)
            if recorder is not None:
                root += recorder.end()
            work = result.seconds
            if probe is not None:
                work -= probe.spent - spent
                self.raw_rates.setdefault(index, []).append(result.ops / work)
            ops += result.ops
            seconds += work
            latencies.extend(result.latencies)
            passes += 1
            known = self.pass_fingerprints.get(index)
            if known is None:
                self.workload.verify(state, result.payload)
                self.pass_fingerprints[index] = result.fingerprint
                self.pass_samples[index] = result.samples
            elif result.fingerprint != known:
                raise self.gate_error(
                    f"a repeated pass on input set {index} gave different outputs"
                )
            del state, result
            if recorder is not None:
                return ops, seconds, latencies, root
            if passes > self.sets and seconds >= self.seconds:
                probe.run()
                scale = self.run_scale = probe.scale(first)
                return ops, seconds * scale, [t * scale for t in latencies], root


def mean_figures(fingerprints) -> Dict[str, float]:
    """Numeric figures averaged over the input sets, in set order."""
    sets = [fingerprints[index] for index in sorted(fingerprints)]
    return {
        name: statistics.fmean(figures[name] for figures in sets)
        for name, value in sets[0].items()
        if isinstance(value, (int, float))
    }


def plain_run(runner: Runner):
    setup_times = [runner.setup(index) for index in range(runner.sets)]
    ops, seconds, _, _ = runner.run_passes()
    print(
        f"host: probe {1e3 * REFERENCE_SECONDS / runner.run_scale:.3f} ms, "
        f"raw wall_ops_per_s {ops * runner.run_scale / seconds:.3f}"
    )
    figures = mean_figures(runner.pass_fingerprints)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_ops_per_s": ops / seconds,
        "nodes_per_query": figures["nodes_per_query"],
        "exact_frac": figures["exact_frac"],
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, ops


def traced_run(runner: Runner, trace_path: Path):
    from repro.obs import validate_chrome_trace
    from spans import SpanRecorder, Tracing
    from workloads import nearest_rank

    workload = runner.workload
    recorder = SpanRecorder()
    with Tracing(recorder):
        recorder.phase = "setup"
        runner.setup(0, recorder)
    for index in range(1, runner.sets):
        runner.setup(index)
    plain_ops, plain_seconds, latencies, _ = runner.run_passes()
    if workload.fresh_state:
        runner.setup(0)
    with Tracing(recorder):
        recorder.phase = "run"
        traced_ops, traced_seconds, _, root = runner.run_passes(recorder)

    recorder.write_chrome_trace(str(trace_path))
    with open(trace_path) as handle:
        validate_chrome_trace(handle)

    setup, run = recorder.self_time["setup"], recorder.self_time["run"]
    spanned = math.fsum(run.values())
    if recorder.open_spans or not math.isclose(spanned, root, rel_tol=1e-6):
        raise runner.gate_error(
            f"per-layer self times add up to {spanned} s, not the traced pass's {root} s"
        )
    layers = spanned - run["bench"]
    untraced = traced_ops / statistics.fmean(runner.raw_rates[0])
    print(
        f"trace: pass untraced {untraced:.4f} s, traced {traced_seconds:.4f} s "
        f"(timed) and {root:.4f} s (spanned) = layer self times {layers:.4f} s "
        f"+ benchmark loop {run['bench']:.4f} s"
    )
    inserts = recorder.durations["setup"]["insert"]
    metrics = {
        name: value
        for name, value in mean_figures(runner.setup_fingerprints).items()
        if "." in name
    }
    metrics.update(mean_figures({
        index: workload.layer_figures(fingerprint)
        for index, fingerprint in runner.pass_fingerprints.items()
    }))
    pooled: Dict[str, list] = {}
    for index in sorted(runner.pass_samples):
        for kind, values in runner.pass_samples[index].items():
            pooled.setdefault(kind, []).extend(values)
    for name, (kind, fraction) in workload.percentiles.items():
        metrics[name] = nearest_rank(pooled[kind], fraction)
    metrics.update({
        "datasets.gen_s": setup["datasets"],
        "rtree.insert_s": setup["rtree"],
        "rtree.insert_p50_us": statistics.median(inserts) * 1e6,
        "rtree.insert_p99_us": nearest_rank(inserts, 0.99) * 1e6,
        "rtree.inserts_per_s": len(inserts) / math.fsum(inserts),
        "parallel.place_s": setup["parallel"],
        "parallel.placements": recorder.spans["setup"]["parallel"],
        "core.search_s": run["core"],
    })
    if latencies:
        metrics["core.query_wall_p50_ms"] = statistics.median(latencies) * 1e3
        metrics["core.query_wall_p99_ms"] = nearest_rank(latencies, 0.99) * 1e3
    by_algorithm = {}
    for qid, seconds in recorder.search_time["run"].items():
        name = recorder.query_algorithm[qid]
        by_algorithm.setdefault(name, []).append(seconds)
    for name, values in by_algorithm.items():
        metrics[f"core.{name.lower()}_p50_ms"] = statistics.median(values) * 1e3
    events = recorder.counts["run"]["events"]
    metrics.update({
        "simulation.self_s": run["simulation"],
        "simulation.events": events,
        "simulation.us_per_event": (
            run["simulation"] / events * 1e6 if events else 0.0
        ),
        "updates.insert_s": run["updates.insert"],
        "updates.process_s": run["updates"],
        "serving.frontend_s": run["serving.frontend"],
        "serving.admission_s": run["serving.admission"],
        "serving.broker_s": run["serving.broker"],
        "raid1.fetch_s": run["raid1"],
        "faults.health_s": run["faults.health"],
    })
    waits = recorder.durations["run"]["lock_wait"]
    if waits:
        metrics["updates.lock_wait_mean_s"] = statistics.fmean(waits)
    observers = ("tracer", "metrics", "timeline", "lifecycle", "slo", "report")
    for name in observers:
        metrics[f"obs.{name}_s"] = run[f"obs.{name}"]
    metrics["obs.share"] = sum(run[f"obs.{name}"] for name in observers) / root
    metrics.update({
        "host.probe_ms": 1e3 * REFERENCE_SECONDS / runner.run_scale,
        "host.raw_ops_per_s": plain_ops * runner.run_scale / plain_seconds,
        "bench.self_s": run["bench"],
        "trace.overhead": (
            traced_ops / traced_seconds / statistics.fmean(runner.raw_rates[0])
        ),
        "trace.attributed_share": layers / root,
        "trace.spans": sum(recorder.spans["run"].values()),
    })
    busy = sorted(
        name for name, value in metrics.items()
        if value and name.split(".")[0] in workload.idle_layers
    )
    busy += sorted(
        f"{layer} spans in {phase}"
        for phase, counts in recorder.spans.items()
        for layer, count in counts.items()
        if count and layer.split(".")[0] in workload.idle_layers
    )
    if busy:
        raise runner.gate_error(f"layers that this workload must not use ran: {busy}")
    return metrics, plain_ops + traced_ops


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((HERE / "workloads.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in spec["workloads"]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, GateError

    config = spec["workloads"][args.workload]["config"]
    workload = WORKLOADS[args.workload](config, args.seed)
    runner = Runner(workload, args.seconds, GateError)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    correct = True
    try:
        if args.trace:
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            trace_path = out / f"{args.workload}-seed{args.seed}.trace.json"
            measured, attempted = traced_run(runner, trace_path)
        else:
            measured, attempted = plain_run(runner)
    except GateError as error:
        print(f"correctness gate: {error}", file=sys.stderr)
        correct, measured, attempted = False, {}, 1

    unknown = sorted(set(measured) - set(units))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    if correct:
        for name, entry in metrics.items():
            print(f"{name:32s} {entry['value']:>16.6f} {entry['unit']}")
        print("deterministic " + json.dumps(
            {"setup": runner.setup_fingerprints, "pass": runner.pass_fingerprints},
            sort_keys=True,
        ))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": metrics if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
