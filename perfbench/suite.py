"""The benchmark's four workloads, built on the public ``repro`` API.

Each workload turns a seed into a fixed list of *items* (one pass). The
runner executes passes back to back in one thread (a closed loop with one
client), times every item, and checks every item's output. An item returns
a plain-data *summary* (numbers, lists and strings only): the checks, the
model statistics and the determinism digest read nothing else, so a test can
corrupt a summary and watch the checks catch it.

Why each workload exists, and which layers it leaves idle, is written down in
``perfbench/README.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.casestudies.scheduling import CoupledSchedulingStudy
from repro.casestudies.trace_replay import TraceReplayStudy
from repro.data.slurm import synthesize_sacct_lines
from repro.fabric import MemoryPool, RackCoSimulator, uniform_tenants
from repro.fabric.faults import FaultSchedule
from repro.profiler.profiler import MultiLevelProfiler
from repro.workloads import build_all, build_workload

#: Relative tolerance of the model-consistency checks (makespan, slowdown).
REL_TOL = 1e-9


@dataclass(frozen=True)
class Item:
    """One unit of closed-loop work: a label and the call that performs it."""

    label: str
    call: Callable[[], dict]


@dataclass(frozen=True)
class Workload:
    """A named workload: how to set it up and what one pass of it runs."""

    name: str
    #: What one unit of ``throughput_per_cal`` is (``jobs`` or ``profiles``).
    unit: str
    #: Minimum number of passes per measured run, so item statistics always
    #: rest on ``min_passes * len(items)`` samples.
    min_passes: int
    #: Layers the issue predicts carry most of the self time, and layers it
    #: predicts do no work (shares checked by the traced run).
    dominant: tuple[str, ...]
    idle: tuple[str, ...]
    setup: Callable[[int, float], list[Item]]
    #: Units of ``throughput_per_cal`` one item's summary completed.
    work: Callable[[dict], int]
    check: Callable[[dict], list[str]]
    #: Claims over one whole pass (all items' summaries, in order).
    check_pass: Callable[[list[dict]], list[str]]
    model: Callable[[list[dict]], dict]
    #: Extra end-to-end figures from one pass's summaries and each item's
    #: best latency (trace-replay fits its cost exponent here).
    extra: Optional[Callable[[list[dict], list[float]], dict]] = None


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------


def non_finite(value: Any, path: str = "") -> list[str]:
    """Paths of every number in ``value`` that is NaN or infinite."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return []
    if isinstance(value, (int, float)):
        return [] if math.isfinite(value) else [f"{path or 'value'} is {value}"]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in non_finite(v, f"{path}.{k}" if path else k)]
    if isinstance(value, (list, tuple)):
        return [p for i, v in enumerate(value) for p in non_finite(v, f"{path}[{i}]")]
    return [f"{path} has unexpected type {type(value).__name__}"]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def schedule_problems(leg: str, jobs: list, makespan: float) -> list[str]:
    """Every job finished, started no earlier than submitted, and the
    makespan is the last finish time. ``jobs`` rows are
    ``[submit, start, finish]``."""
    problems = []
    for index, (submit, start, finish) in enumerate(jobs):
        if start is None or finish is None:
            problems.append(f"{leg}: job {index} did not finish")
        elif start < submit - REL_TOL or finish < start:
            problems.append(f"{leg}: job {index} has submit {submit} start {start} finish {finish}")
    finishes = [row[2] for row in jobs if row[2] is not None]
    if finishes and not _close(max(finishes), makespan):
        problems.append(f"{leg}: makespan {makespan} != last finish {max(finishes)}")
    return problems


def _job_rows(outcome) -> list:
    return [[j.submit_time, j.start_time, j.finish_time] for j in outcome.jobs]


def _mean(values: list) -> float:
    return float(np.mean(values)) if values else 0.0


def _schedule_model(legs: list[dict]) -> dict:
    """Model statistics over schedule legs (``jobs`` rows plus ``makespan_s``)."""
    waits, slowdowns = [], []
    for leg in legs:
        for (submit, start, finish), baseline in zip(leg["jobs"], leg["baselines"]):
            waits.append(start - submit)
            slowdowns.append((finish - start) / baseline)
    return {
        "makespan_s": float(sum(leg["makespan_s"] for leg in legs)),
        "mean_slowdown": _mean(slowdowns),
        "mean_wait_s": _mean(waits),
    }


# ---------------------------------------------------------------------------
# profile-suite: the paper's three-level methodology
# ---------------------------------------------------------------------------

PROFILE_FRACTIONS = (0.5, 0.25)
#: Footprint scale of the profiled inputs: half the paper's 1x problems, so
#: a 20-second run holds about seven passes and each item's best time rests
#: on that many samples. The paper's qualitative claims still hold at this
#: size (checked on every pass).
PROFILE_SCALE = 0.5


def _profile_item(profiler: MultiLevelProfiler, spec) -> dict:
    """Level 1 once (it runs on local memory only), levels 2 and 3 at each
    local fraction."""
    level1 = profiler.level1(spec)
    pooled = []
    for fraction in PROFILE_FRACTIONS:
        level2 = profiler.level2(spec, local_fraction=fraction)
        level3 = profiler.level3(spec, local_fraction=fraction)
        pooled.append(
            {
                "local_fraction": fraction,
                "remote_access_ratio": level2.overall_remote_access_ratio,
                "interference_coefficient": level3.interference_coefficient,
                "max_performance_loss": level3.sensitivity.max_performance_loss,
            }
        )
    return {
        "workload": spec.name,
        "level1_runtime_s": level1.total_runtime,
        "prefetch_gain": level1.prefetch.performance_gain,
        "prefetch_excess_traffic": level1.prefetch.excess_traffic,
        "pooled": pooled,
    }


def setup_profile_suite(seed: int, scale: float = 1.0) -> list[Item]:
    """The six workloads, each profiled at every level; the profiler is seeded."""
    profiler = MultiLevelProfiler(seed=seed)
    return [
        Item(label=spec.name, call=lambda spec=spec: _profile_item(profiler, spec))
        for spec in build_all(PROFILE_SCALE * scale)
    ]


def check_profile(summary: dict) -> list[str]:
    problems = []
    if summary["level1_runtime_s"] <= 0:
        problems.append(f"level-1 runtime {summary['level1_runtime_s']} is not positive")
    for row in summary["pooled"]:
        at = f"at local fraction {row['local_fraction']}"
        if not 0.0 <= row["remote_access_ratio"] <= 1.0:
            problems.append(f"remote access ratio {row['remote_access_ratio']} outside [0, 1] {at}")
        if row["interference_coefficient"] < 1.0 - REL_TOL:
            problems.append(f"interference coefficient {row['interference_coefficient']} < 1 {at}")
    return problems


def check_profile_claims(summaries: list[dict]) -> list[str]:
    """The qualitative shape of the paper's Sections 4 and 6."""
    by_name = {s["workload"]: s for s in summaries}
    problems = []
    gain = max(by_name, key=lambda n: by_name[n]["prefetch_gain"])
    if gain != "NekRS":
        problems.append(f"{gain}, not NekRS, gains most from prefetching")
    waste = max(by_name, key=lambda n: by_name[n]["prefetch_excess_traffic"])
    if waste != "SuperLU":
        problems.append(f"{waste}, not SuperLU, wastes most prefetch traffic")
    for index, fraction in enumerate(PROFILE_FRACTIONS):
        loss = {n: s["pooled"][index]["max_performance_loss"] for n, s in by_name.items()}
        top3 = sorted(loss, key=loss.get, reverse=True)[:3]
        for name in ("Hypre", "NekRS"):
            if name not in top3:
                problems.append(f"{name} is not among the three most sensitive at {fraction} ({top3})")
    return problems


def profile_model(summaries: list[dict]) -> dict:
    losses = [row["max_performance_loss"] for s in summaries for row in s["pooled"]]
    return {
        "makespan_s": float(sum(s["level1_runtime_s"] for s in summaries)),
        "mean_slowdown": _mean([1.0 / (1.0 - loss) for loss in losses]),
        "mean_wait_s": 0.0,
    }


# ---------------------------------------------------------------------------
# trace-replay: Slurm ingest + the scheduler event loop at two sizes
# ---------------------------------------------------------------------------

REPLAY_SMALL_JOBS = 150
#: Many short traces rather than a few long ones: one trace's host cost
#: varies by about 10% with its seed, and the run's figures average that out.
REPLAY_SMALL_TRACES = 8
REPLAY_LARGE_TRACES = 4
#: Mean seconds between submissions: about four times what the 64 nodes can
#: serve, so the backlog, and with it the replay's cost, grows with the trace
#: rather than with one seed's luck.
REPLAY_INTERARRIVAL_S = 30.0


def _replay_item(lines: list[str], seed: int) -> dict:
    study = TraceReplayStudy(
        n_racks=4, nodes_per_rack=16, pool_capacity_gb=2048.0, policy="pool-aware", seed=seed
    )
    result = study.run(lines)
    return {
        "jobs_replayed": result.jobs_replayed,
        "unplaceable_jobs": result.unplaceable_jobs,
        "ingest": {k: v for k, v in result.ingest.items() if k != "skipped_by_reason"},
        "makespan_s": result.outcome.makespan,
        "jobs": _job_rows(result.outcome),
        "baselines": [j.profile.baseline_runtime for j in result.outcome.jobs],
    }


def setup_trace_replay(seed: int, scale: float = 1.0) -> list[Item]:
    """Eight seeded sacct dumps and four twice as large.

    ``scale`` shrinks the job counts for the benchmark's own tests.
    """
    small = max(int(REPLAY_SMALL_JOBS * scale), 8)
    sizes = [small] * REPLAY_SMALL_TRACES + [2 * small] * REPLAY_LARGE_TRACES
    traces = [(n_jobs, seed * 100 + i) for i, n_jobs in enumerate(sizes)]
    items = []
    for n_jobs, trace_seed in traces:
        lines = list(
            synthesize_sacct_lines(n_jobs, seed=trace_seed, mean_interarrival_s=REPLAY_INTERARRIVAL_S)
        )
        items.append(
            Item(
                label=f"replay-{n_jobs}-{trace_seed}",
                call=lambda lines=lines, trace_seed=trace_seed: _replay_item(lines, trace_seed),
            )
        )
    return items


def check_replay(summary: dict) -> list[str]:
    ingest = summary["ingest"]
    problems = []
    if not ingest["conserved"]:
        problems.append(f"ingest not conserved: {ingest}")
    replayed = summary["jobs_replayed"] + summary["unplaceable_jobs"]
    if replayed != ingest["jobs_yielded"]:
        problems.append(f"{replayed} jobs replayed or dropped, {ingest['jobs_yielded']} ingested")
    if len(summary["jobs"]) != summary["jobs_replayed"]:
        problems.append(f"{len(summary['jobs'])} jobs scheduled, {summary['jobs_replayed']} replayed")
    return problems + schedule_problems("replay", summary["jobs"], summary["makespan_s"])


def replay_cost_exponent(summaries: list[dict], latencies: list[float]) -> dict:
    """Least-squares slope of log host time against log replayed jobs."""
    jobs = np.log([s["jobs_replayed"] for s in summaries])
    times = np.log(latencies)
    slope = float(np.polyfit(jobs, times, 1)[0])
    return {"job_cost_exponent": slope}


# ---------------------------------------------------------------------------
# coupled-cluster: the scheduler with the cluster fabric in the loop
# ---------------------------------------------------------------------------

COUPLED_STUDIES = 2
COUPLED_COPIES = 2
COUPLED_STAGGER_S = 5.0


def _coupled_item(specs: list, seed: int) -> dict:
    study = CoupledSchedulingStudy(
        n_racks=4,
        nodes_per_rack=4,
        pool_capacity_gb=4.0,
        cluster_pool_gb=8.0,
        policy="cluster-fabric",
        seed=seed,
    )
    result = study.run(specs, copies=COUPLED_COPIES, stagger=COUPLED_STAGGER_S)
    return {
        leg: {
            "makespan_s": outcome.makespan,
            "jobs": _job_rows(outcome),
            "baselines": [j.profile.baseline_runtime for j in outcome.jobs],
        }
        for leg, outcome in (("static", result.static), ("coupled", result.coupled))
    }


def setup_coupled_cluster(seed: int, scale: float = 1.0) -> list[Item]:
    """Two job streams: the six workloads, two copies each, 5 s apart.

    The seed goes to each study (and so to every engine run in it). The
    stream's order and spacing stay fixed: reordering the same jobs changes
    the stream's host cost by up to 2x, which would make the host figures
    measure the seed instead of the code. ``scale`` below 1 keeps only the
    first three workloads (tests).
    """
    specs = build_all(1.0)
    if scale < 1.0:
        specs = specs[:3]
    return [
        Item(label=f"stream-{index}", call=lambda s=seed * 100 + index: _coupled_item(specs, s))
        for index in range(COUPLED_STUDIES)
    ]


def check_coupled(summary: dict) -> list[str]:
    problems = []
    for leg in ("static", "coupled"):
        data = summary[leg]
        problems += schedule_problems(leg, data["jobs"], data["makespan_s"])
    if len(summary["static"]["jobs"]) != len(summary["coupled"]["jobs"]):
        problems.append("the two legs scheduled different job counts")
    return problems


def coupled_model(summaries: list[dict]) -> dict:
    return _schedule_model([s[leg] for s in summaries for leg in ("static", "coupled")])


# ---------------------------------------------------------------------------
# rack-whatif: batch rack co-simulation, plain and chaos
# ---------------------------------------------------------------------------

RACK_WORKLOADS = ("Hypre", "BFS", "XSBench")
RACK_TENANTS = (2, 4, 8)
#: Chaos pools hold this share of what all tenants ask for (overcommitted).
CHAOS_POOL_SHARE = 0.6
#: Lowest slowdown the rack check accepts. The rate model is not monotone in
#: background bandwidth: ``PerformanceModel.phase_time`` adds the remote
#: latency stall on top of ``max(local, remote)`` streaming, and heavy
#: background shrinks that stall while the longer remote streaming stays
#: hidden behind the local tier. XSBench's main phase therefore progresses up
#: to 1.9% faster than on an idle fabric (``TenantOutcome.slowdown`` documents
#: ``>= ~1``). A slowdown below ``1 / 1.02`` is more than the rate model can
#: give and so an accounting error; the shortfall above it is reported as
#: ``below_baseline`` in the model statistics.
SLOWDOWN_FLOOR = 1.0 / 1.02


def _rack_item(tenants: list, chaos: Optional[FaultSchedule], seed: int) -> dict:
    if chaos is None:
        sim = RackCoSimulator(tenants, seed=seed)
    else:
        need = sum(t.lease_bytes for t in tenants)
        pool = MemoryPool(capacity_bytes=int(need * CHAOS_POOL_SHARE), elastic=True)
        sim = RackCoSimulator(tenants, pool=pool, seed=seed)
        sim.inject_faults(chaos)
    result = sim.run()
    return {
        "makespan_s": result.makespan,
        "pool_capacity_bytes": result.pool_capacity_bytes,
        "max_leased_bytes": result.max_leased_bytes,
        "tenants": [
            {
                "arrival": t.arrival,
                "start": t.start_time,
                "finish": t.finish_time,
                "baseline_s": t.baseline_runtime,
                "slowdown": t.slowdown,
            }
            for t in result.tenants
        ],
    }


def setup_rack_whatif(seed: int, scale: float = 1.0) -> list[Item]:
    """{Hypre, BFS, XSBench} x {2, 4, 8} tenants, each plain and chaos.

    A chaos point arms a seeded port/lease fault schedule and an elastic
    pool sized below the tenants' demand. ``scale`` below 1 keeps only the
    two-tenant points (tests).
    """
    rng = np.random.default_rng(seed)
    counts = RACK_TENANTS if scale >= 1.0 else RACK_TENANTS[:1]
    items = []
    for name in RACK_WORKLOADS:
        spec = build_workload(name)
        for n in counts:
            stagger = float(np.round(rng.uniform(0.5, 3.0), 3))
            tenants = uniform_tenants(spec, n, local_fraction=0.5, stagger=stagger)
            chaos = FaultSchedule.seeded(
                seed=int(rng.integers(0, 2**31)),
                horizon=40.0,
                n_events=4,
                kinds=("port-kill", "port-degrade", "lease-revoke"),
                n_ports=1,
                tenants=[t.name for t in tenants],
                mean_duration=3.0,
            )
            point_seed = seed * 100 + n
            for schedule in (None, chaos):
                kind = "plain" if schedule is None else "chaos"
                items.append(
                    Item(
                        label=f"{name}x{n}-{kind}",
                        call=lambda t=tenants, s=schedule, ps=point_seed: _rack_item(t, s, ps),
                    )
                )
    return items


def check_rack(summary: dict) -> list[str]:
    problems = []
    if summary["max_leased_bytes"] > summary["pool_capacity_bytes"]:
        problems.append(
            f"leased {summary['max_leased_bytes']} B over capacity {summary['pool_capacity_bytes']} B"
        )
    rows = []
    for index, tenant in enumerate(summary["tenants"]):
        if tenant["slowdown"] < SLOWDOWN_FLOOR:
            problems.append(f"tenant {index} slowdown {tenant['slowdown']} < {SLOWDOWN_FLOOR:.4f}")
        rows.append([tenant["arrival"], tenant["start"], tenant["finish"]])
    return problems + schedule_problems("rack", rows, summary["makespan_s"])


def rack_model(summaries: list[dict]) -> dict:
    tenants = [t for s in summaries for t in s["tenants"]]
    return {
        "makespan_s": float(sum(s["makespan_s"] for s in summaries)),
        "mean_slowdown": _mean([t["slowdown"] for t in tenants]),
        "mean_wait_s": _mean([t["start"] - t["arrival"] for t in tenants]),
        "below_baseline": sum(1 for t in tenants if t["slowdown"] < 1.0 - 1e-6),
    }


def _no_pass_check(summaries: list[dict]) -> list[str]:
    return []


def _finished(rows: list) -> int:
    return sum(1 for row in rows if row[2] is not None)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="profile-suite",
            unit="profiles",
            min_passes=5,
            dominant=("sim", "profiler", "memory", "trace"),
            idle=("scheduler", "fabric", "data"),
            setup=setup_profile_suite,
            work=lambda summary: 1,
            check=check_profile,
            check_pass=check_profile_claims,
            model=profile_model,
        ),
        Workload(
            name="trace-replay",
            unit="jobs",
            min_passes=4,
            dominant=("scheduler",),
            idle=("fabric", "sim", "profiler", "memory", "trace"),
            setup=setup_trace_replay,
            work=lambda summary: _finished(summary["jobs"]),
            check=check_replay,
            check_pass=_no_pass_check,
            model=_schedule_model,
            extra=replay_cost_exponent,
        ),
        Workload(
            name="coupled-cluster",
            unit="jobs",
            min_passes=3,
            dominant=("fabric", "sim", "interconnect"),
            idle=("data", "profiler"),
            setup=setup_coupled_cluster,
            work=lambda summary: _finished(summary["static"]["jobs"]) + _finished(summary["coupled"]["jobs"]),
            check=check_coupled,
            check_pass=_no_pass_check,
            model=coupled_model,
        ),
        Workload(
            name="rack-whatif",
            unit="jobs",
            min_passes=5,
            dominant=("fabric", "sim", "interconnect"),
            idle=("scheduler", "data", "profiler"),
            setup=setup_rack_whatif,
            work=lambda summary: sum(1 for t in summary["tenants"] if t["finish"] is not None),
            check=check_rack,
            check_pass=_no_pass_check,
            model=rack_model,
        ),
    )
}
