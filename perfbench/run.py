"""End-to-end benchmark of the disaggregated-memory simulator.

Run from the repository root::

    python3 perfbench/run.py --workload trace-replay --seed 1 --seconds 20 --trace 0

One process and one thread drive the public ``repro`` API in a closed loop:
the workload's items (see ``suite.py``) run back to back, pass after pass,
until ``--seconds`` are spent (and at least the workload's minimum number of
passes has run). Every item's output is checked; a check that fails or an
item that raises counts as failed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced passes with traced ones, which have spans around each layer's
public calls (``spans.py``) and telemetry counters on, and prints the
per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (named throughput, tail percentile, model statistics,
layer shares) that are not metrics of every workload.

The simulator's numbers are not validated against measurements (the repo has
only the paper's qualitative claims), so no accuracy figure is reported:
``model.*`` values only check that a seed gives the same answer every time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Thread pools of the numeric libraries are pinned to one thread, so the
#: benchmark is one process with one thread on any host.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh interpreters started to time the package import (median reported),
#: after one untimed start that warms the file cache and writes the bytecode.
SETUP_REPEATS = 9

#: A traced run makes about this share of ``--seconds`` in untraced passes,
#: each followed by a traced one.
TRACE_PAIR_SHARE = 0.45

VALIDATION_NOTE = (
    "model unvalidated: the repository holds only the paper's qualitative claims, "
    "so model.* figures are determinism checks, not accuracy"
)


@dataclass
class Passes:
    """Item summaries and host latencies of consecutive passes."""

    summaries: list = field(default_factory=list)  # [pass][item] -> dict | None
    latencies: list = field(default_factory=list)  # [pass][item] -> seconds
    errors: list = field(default_factory=list)  # [pass][item] -> traceback | None
    #: [pass][k] -> seconds of the calibration kernel run before item k
    #: (k = number of items: after the last one); empty without a kernel.
    calib: list = field(default_factory=list)
    wall_s: float = 0.0

    def extend(self, other: "Passes") -> None:
        self.summaries += other.summaries
        self.latencies += other.latencies
        self.errors += other.errors
        self.calib += other.calib
        self.wall_s += other.wall_s


def run_passes(items, passes: int = 0, seconds: float = 0.0, min_passes: int = 1, kernel=None) -> Passes:
    """Run whole passes over ``items``: exactly ``passes`` when given, else
    at least ``min_passes`` and then while another pass fits in ``seconds``.

    With a calibration ``kernel``, it is timed before every item and after
    the last one, so each item's time has the host's speed on both sides.
    """
    out = Passes()
    start = perf_counter()
    while True:
        done = len(out.summaries)
        if passes:
            if done >= passes:
                break
        elif done >= min_passes:
            elapsed = perf_counter() - start
            if elapsed + elapsed / done > seconds:
                break
        summaries, latencies, errors, calib = [], [], [], []
        for item in items:
            if kernel is not None:
                calib.append(time_kernel(kernel))
            t0 = perf_counter()
            try:
                summary, error = item.call(), None
            except Exception:  # an item that raises is a failed item; keep going
                summary, error = None, traceback.format_exc()
            latencies.append(perf_counter() - t0)
            summaries.append(summary)
            errors.append(error)
        if kernel is not None:
            calib.append(time_kernel(kernel))
            out.calib.append(calib)
        out.summaries.append(summaries)
        out.latencies.append(latencies)
        out.errors.append(errors)
    out.wall_s = perf_counter() - start
    return out


def digest(summaries: list) -> str:
    """SHA-256 of one pass's summaries in canonical JSON."""
    return hashlib.sha256(json.dumps(summaries, sort_keys=True).encode()).hexdigest()


def evaluate(workload, run: Passes, reference: str | None = None) -> tuple[list, str]:
    """Problems of every item of every pass, and the first pass's digest.

    A claim over the whole pass that fails, fails every item of the pass. So
    does a pass whose digest differs from ``reference`` (or from the first
    pass): the same seed must give the same answer.
    """
    from suite import non_finite

    problems = []
    first = None
    for index, (summaries, errors) in enumerate(zip(run.summaries, run.errors)):
        found = []
        for summary, error in zip(summaries, errors):
            if summary is None:
                found.append(["raised: " + (error or "").strip().splitlines()[-1]])
            else:
                found.append(non_finite(summary) + workload.check(summary))
        if None not in summaries:
            claims = workload.check_pass(summaries)
            for item_problems in found:
                item_problems += claims
        pass_digest = digest(summaries)
        first = first or pass_digest
        expected = reference or first
        if pass_digest != expected:
            for p in range(len(found)):
                found[p].append(f"pass {index} digest {pass_digest[:12]} != {expected[:12]}")
        problems.extend(found)
    return problems, first


def failure_lines(items, problems: list) -> list[str]:
    """The first distinct problems, each with its item's label."""
    lines = {
        f"{items[index % len(items)].label}: {problem}"
        for index, found in enumerate(problems)
        for problem in found
    }
    return sorted(lines)[:10]


def best_latencies(run: Passes) -> list[float]:
    """Each item's fastest latency over the passes."""
    return [min(column) for column in zip(*run.latencies)]


def tail_percentile(min_items: int) -> int | None:
    """Highest whole percentile with at least ten of ``min_items`` beyond it
    (nearest rank); None below twenty items, where not even the median has
    ten beyond it."""
    if min_items < 20:
        return None
    return max(p for p in range(50, 100) if min_items - math.ceil(p * min_items / 100) >= 10)


def nearest_rank(values: list[float], percentile: int) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(percentile * len(ordered) / 100) - 1, 0)]


def calibration_kernel():
    """A fixed mix shaped like the simulator's own work, 25-40 ms on a
    2-core Xeon: a heap-driven event loop over dicts (the scheduler), many
    NumPy calls on tiny arrays (the rate model), small dense algebra and a
    sort (the engine and the profiler)."""
    import heapq

    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.random((96, 96))
    rates = rng.random(8)
    values = np.random.default_rng(1).random(20_000)

    def kernel() -> None:
        queue, totals = [], {}
        for i in range(12_000):
            heapq.heappush(queue, ((i * 7919) % 1013 + 0.5, i))
            if len(queue) > 64:
                at, event = heapq.heappop(queue)
                totals[event] = totals.get(event % 97, 0.0) + at
        level = rates
        for _ in range(1_500):
            level = np.minimum(level * 1.0001 + rates, 10.0)
            float(level.sum())
        m = matrix
        for _ in range(10):
            m = np.tanh(m @ m / 96.0)
        np.sort(values)

    return kernel


def time_kernel(kernel) -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def calibrated_costs(run: Passes) -> list[float]:
    """Each item's median cost over the passes in calibration units: its
    time over the mean of the kernel times just before and just after it.

    The host this benchmark was written on slows down by up to 1.7x for
    seconds at a time, and for minutes its slow share varies; a neighbouring
    kernel slows down with the item, so the ratio keeps to the code.
    """
    ratios = [
        [latency / ((calib[k] + calib[k + 1]) / 2.0) for k, latency in enumerate(latencies)]
        for latencies, calib in zip(run.latencies, run.calib)
    ]
    return [statistics.median(column) for column in zip(*ratios)]


def measure_setup(workload, seed: int, scale: float = 1.0):
    """Median of fresh-interpreter import plus in-process workload set-up.

    The fresh interpreter imports ``repro.cli``, what every CLI call pays.
    Returns ``(setup_s, import_s, items)``.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", "import repro.cli"]
    subprocess.run(command, env=env, check=True, cwd=ROOT)
    totals, imports = [], []
    items = None
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(command, env=env, check=True, cwd=ROOT)
        imported = perf_counter() - t0
        t0 = perf_counter()
        items = workload.setup(seed, scale)
        totals.append(imported + perf_counter() - t0)
        imports.append(imported)
    return statistics.median(totals), statistics.median(imports), items


def end_to_end(workload, seed: int, seconds: float, scale: float = 1.0) -> dict:
    """End-to-end metrics of untraced passes; ``scale`` shrinks inputs (tests)."""
    setup_s, import_s, items = measure_setup(workload, seed, scale)
    kernel = calibration_kernel()
    run = run_passes(items, seconds=seconds, min_passes=workload.min_passes, kernel=kernel)
    problems, first_digest = evaluate(workload, run)
    latencies = [t for row in run.latencies for t in row]
    costs = calibrated_costs(run)
    host_s = [statistics.median(column) for column in zip(*run.latencies)]
    # Passes repeat identical work (the digest checks it), so the first
    # pass's summaries give each item's work.
    work = sum(workload.work(s) for s in run.summaries[0] if s is not None)
    calib_s = statistics.median(t for row in run.calib for t in row)
    attempted = len(problems)
    failed = sum(1 for p in problems if p)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_per_cal": (work / sum(costs), "1/cal"),
        "item_p50_cal": (statistics.median(costs), "cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    percentile = tail_percentile(workload.min_passes * len(items))
    detail = {
        "workload": workload.name,
        "seed": seed,
        "passes": len(run.summaries),
        "items": attempted,
        f"{workload.unit}_per_s": work / sum(host_s),
        "item_p50_s": statistics.median(latencies),
        "item_tail": (
            {"percentile": percentile, "value_s": nearest_rank(latencies, percentile)}
            if percentile is not None
            else "not reported: fewer than twenty items per run"
        ),
        "failed_frac": failed / attempted,
        "import_s": import_s,
        "host.calib_s": calib_s,
        "model": workload.model(run.summaries[0]) if None not in run.summaries[0] else {},
        "model_digest": first_digest,
        "validation": VALIDATION_NOTE,
        "failures": failure_lines(items, problems),
    }
    if workload.extra is not None and None not in run.summaries[0]:
        detail.update(workload.extra(run.summaries[0], costs))
    return {"detail": detail, "attempted": attempted, "failed": failed, "metrics": metrics}


def _counter(registry, name: str) -> float:
    instrument = registry.get(name)
    return float(instrument.value) if instrument is not None else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(self_s: dict, calls: dict, placed: int, registry, passes: int) -> dict:
    """Per-layer figures per traced pass, from span totals and counters."""
    from spans import ROOT as SPAN_ROOT

    def s(*names: str) -> float:
        return sum(self_s.get(n, 0.0) for n in names) / passes

    def c(*names: str) -> float:
        return sum(_counter(registry, n) for n in names) / passes

    iterations = [
        v
        for name in ("fabric.solve.iterations", "fabric.cluster.solve.iterations")
        if registry.get(name) is not None
        for v in registry.get(name).values
    ]
    fabric_spans = [n for n in self_s if n.startswith("fabric.")]
    slurm_s = self_s.get("data.slurm", 0.0)
    policy_calls = calls.get("scheduler.policy", 0)
    profile_runs = _counter(registry, "fabric.profile.runs")
    profile_hits = _counter(registry, "fabric.profile.cache_hits")
    skips = _counter(registry, "fabric.cosim.epoch_skips")
    resolves = _counter(registry, "fabric.cosim.epoch_resolves")
    granted = _counter(registry, "fabric.pool.granted")
    decisions = granted + _counter(registry, "fabric.pool.queued") + _counter(registry, "fabric.pool.rejected")
    return {
        "scheduler.self_s": (s("scheduler.loop", "scheduler.policy"), "s"),
        "scheduler.events": (c("scheduler.events"), "count"),
        "scheduler.policy.self_s": (s("scheduler.policy"), "s"),
        "scheduler.policy.calls": (policy_calls / passes, "count"),
        "scheduler.policy.placed_ratio": (_ratio(placed, policy_calls), "ratio"),
        "data.slurm.self_s": (s("data.slurm"), "s"),
        "data.slurm.rows_per_s": (_ratio(_counter(registry, "data.slurm.rows_read"), slurm_s), "1/s"),
        "fabric.self_s": (s(*fabric_spans), "s"),
        "fabric.cluster.step.self_s": (s("fabric.cluster.step"), "s"),
        "fabric.cluster.step_calls": (c("fabric.cluster.step_calls"), "count"),
        "fabric.cosim.run.self_s": (s("fabric.cosim.run"), "s"),
        "fabric.cosim.step.self_s": (s("fabric.cosim.step"), "s"),
        "fabric.cosim.rates.self_s": (s("fabric.cosim.rates"), "s"),
        "fabric.cosim.epoch_skip_ratio": (_ratio(skips, skips + resolves), "ratio"),
        "fabric.admit.self_s": (s("fabric.admit"), "s"),
        "fabric.solve.self_s": (s("fabric.solve"), "s"),
        "fabric.solve.calls": (c("fabric.solve.calls", "fabric.cluster.solve.calls"), "count"),
        "fabric.solve.iterations_mean": (sum(iterations) / len(iterations) if iterations else 0.0, "count"),
        "fabric.solve.nonconverged": (c("fabric.solve.nonconverged"), "count"),
        "fabric.pool.grant_ratio": (_ratio(granted, decisions), "ratio"),
        "fabric.pool.shrunk": (c("fabric.pool.shrunk"), "count"),
        "fabric.pool.revoked": (c("fabric.pool.revoked"), "count"),
        "fabric.cluster.spills": (c("fabric.cluster.spills"), "count"),
        "fabric.faults.stall_s": (c("fabric.faults.stall_seconds"), "s"),
        "fabric.profile.cache_hit_ratio": (_ratio(profile_hits, profile_hits + profile_runs), "ratio"),
        "sim.engine.self_s": (s("sim.engine"), "s"),
        "sim.engine.runs": (c("engine.runs"), "count"),
        "sim.perfmodel.self_s": (s("sim.perfmodel"), "s"),
        "sim.perfmodel.calls": (calls.get("sim.perfmodel", 0) / passes, "count"),
        "interconnect.link.self_s": (s("interconnect.link"), "s"),
        "interconnect.link.calls": (calls.get("interconnect.link", 0) / passes, "count"),
        "profiler.level1.self_s": (s("profiler.level1"), "s"),
        "profiler.level2.self_s": (s("profiler.level2"), "s"),
        "profiler.level3.self_s": (s("profiler.level3"), "s"),
        "memory.tiered.self_s": (s("memory.tiered"), "s"),
        "trace.access.self_s": (s("trace.access"), "s"),
        "casestudies.self_s": (s("casestudies"), "s"),
        "bench.unclaimed_s": (s(SPAN_ROOT), "s"),
        "bench.traced_wall_s": (sum(self_s.values()) / passes, "s"),
    }


def layer_shares(self_s: dict) -> dict:
    """Each layer's share of the traced wall time (the root keeps the rest)."""
    from spans import LAYERS, layer_of

    wall = sum(self_s.values())
    shares = {layer: 0.0 for layer in LAYERS}
    for name, value in self_s.items():
        layer = layer_of(name)
        if layer in shares:
            shares[layer] += value / wall
    shares["unclaimed"] = 1.0 - sum(shares.values())
    return shares


def split_verdict(workload, shares: dict) -> dict:
    """Compare the measured layer shares with the issue's prediction.

    The largest layer must be one of the predicted ones, and each layer
    predicted idle must hold under 1% of the traced wall time.
    """
    layers = {k: v for k, v in shares.items() if k != "unclaimed"}
    largest = max(layers, key=layers.get)
    deviations = []
    if largest not in workload.dominant:
        deviations.append(f"largest layer is {largest}, predicted one of {list(workload.dominant)}")
    for layer in workload.idle:
        if shares[layer] >= 0.01:
            deviations.append(f"{layer} predicted idle but holds {shares[layer]:.1%}")
    return {"largest": largest, "predicted": list(workload.dominant), "deviations": deviations}


def traced(workload, seed: int, seconds: float, scale: float = 1.0) -> dict:
    """Per-layer metrics from traced passes that alternate with untraced ones.

    Alternating puts both sides in the same stretches of host speed, so the
    tracing overhead is not confused with the host's drift.
    """
    from repro import telemetry
    from spans import SpanTracer

    _, import_s, items = measure_setup(workload, seed, scale)
    kernel = calibration_kernel()
    calib_s = statistics.median(time_kernel(kernel) for _ in range(9))
    baseline = run_passes(items, passes=1)
    passes = max(round(TRACE_PAIR_SHARE * seconds / baseline.wall_s), 1)
    tracer = SpanTracer()
    traced_run = Passes()
    # A fresh registry that records during the traced passes only.
    telemetry.enable(reset=True)
    telemetry.disable()
    for index in range(passes):
        if index:
            baseline.extend(run_passes(items, passes=1))
        telemetry.enable()
        tracer.install()
        try:
            traced_run.extend(tracer.root(lambda: run_passes(items, passes=1)))
        finally:
            tracer.uninstall()
            telemetry.disable()
    registry = telemetry.registry()

    problems, reference = evaluate(workload, baseline)
    traced_problems, _ = evaluate(workload, traced_run, reference=reference)
    problems += traced_problems
    self_s, calls = tracer.totals()
    metrics = layer_metrics(self_s, calls, tracer.placed, registry, passes)
    model = workload.model(baseline.summaries[0]) if None not in baseline.summaries[0] else {}
    metrics.update(
        {
            "import.repro_s": (import_s, "s"),
            "trace_overhead_pct": (
                100.0 * (sum(best_latencies(traced_run)) / sum(best_latencies(baseline)) - 1.0),
                "%",
            ),
            "host.calib_s": (calib_s, "s"),
            "model.makespan_s": (model.get("makespan_s", 0.0), "s"),
            "model.mean_slowdown": (model.get("mean_slowdown", 0.0), "ratio"),
            "model.mean_wait_s": (model.get("mean_wait_s", 0.0), "s"),
            "model.digest": (int(reference[:12], 16), "id"),
        }
    )
    shares = layer_shares(self_s)
    attempted = len(problems)
    failed = sum(1 for p in problems if p)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "traced_passes": passes,
        "layer_shares": shares,
        "split": split_verdict(workload, shares),
        "model_digest": reference,
        "validation": VALIDATION_NOTE,
        "failed_frac": failed / attempted,
        "failures": failure_lines(items, problems),
    }
    return {"detail": detail, "attempted": attempted, "failed": failed, "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from suite import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    run = traced if args.trace else end_to_end
    result = run(workload, args.seed, args.seconds)
    print(json.dumps({"detail": result["detail"]}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
