"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import suite  # noqa: E402
from spans import SpanTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Input scale of the tests: every workload's pass runs in about a second.
TINY = 0.5


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(suite.WORKLOADS)


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_every_workload_emits_every_metric_with_its_unit(name):
    workload = suite.WORKLOADS[name]
    plain = run.end_to_end(workload, seed=3, seconds=0.01, scale=TINY)
    assert {k: u for k, (_, u) in plain["metrics"].items()} == _units("end_to_end")
    assert all(v > 0 for v, _ in plain["metrics"].values())
    layered = run.traced(workload, seed=3, seconds=0.01, scale=TINY)
    assert {k: u for k, (_, u) in layered["metrics"].items()} == _units("per_layer")
    for result in (plain, layered):
        assert result["attempted"] >= 1
        assert all(math.isfinite(v) for v, _ in result["metrics"].values())


def _summaries(name: str, seed: int = 5) -> tuple:
    workload = suite.WORKLOADS[name]
    return workload, run.run_passes(workload.setup(seed, TINY), passes=1)


def _failed(workload, passes) -> int:
    problems, _ = run.evaluate(workload, passes)
    return sum(1 for p in problems if p)


@pytest.mark.parametrize("name", ["trace-replay", "coupled-cluster", "rack-whatif"])
def test_a_tampered_makespan_is_failed(name):
    workload, passes = _summaries(name)
    clean, _ = run.evaluate(workload, passes)
    assert clean[0] == []
    tampered = copy.deepcopy(passes)
    summary = tampered.summaries[0][0]
    target = summary["coupled"] if name == "coupled-cluster" else summary
    target["makespan_s"] *= 1.5
    problems, _ = run.evaluate(workload, tampered)
    assert any("makespan" in p for p in problems[0])
    assert _failed(workload, tampered) == _failed(workload, passes) + 1


def test_a_leased_over_capacity_row_is_failed():
    workload, passes = _summaries("rack-whatif")
    row = copy.deepcopy(passes.summaries[0][0])
    row["max_leased_bytes"] = row["pool_capacity_bytes"] + 1
    assert any("over capacity" in p for p in workload.check(row))


def test_an_unfinished_job_and_a_start_before_submit_are_failed():
    workload, passes = _summaries("trace-replay")
    row = copy.deepcopy(passes.summaries[0][0])
    row["jobs"][0][2] = None
    row["jobs"][1][1] = row["jobs"][1][0] - 10.0
    problems = workload.check(row)
    assert any("did not finish" in p for p in problems)
    assert any("submit" in p for p in problems)


@pytest.mark.xfail(
    strict=True,
    reason="known simulator defect: PerformanceModel.phase_time is not monotone "
    "in background bandwidth, so a chaos XSBench tenant finishes slightly faster "
    "than its interference-free baseline",
)
def test_chaos_tenants_never_beat_their_baseline():
    workload, passes = _summaries("rack-whatif", seed=5)
    assert workload.model(passes.summaries[0])["below_baseline"] == 0


def test_the_defect_stays_within_the_slowdown_floor():
    workload, passes = _summaries("rack-whatif", seed=5)
    problems, _ = run.evaluate(workload, passes)
    assert not any("slowdown" in p for found in problems for p in found)
    row = copy.deepcopy(passes.summaries[0][0])
    row["tenants"][0]["slowdown"] = suite.SLOWDOWN_FLOOR * 0.999
    assert any("slowdown" in p for p in workload.check(row))


def test_non_finite_numbers_and_raising_items_are_failed():
    workload, passes = _summaries("rack-whatif")
    broken = copy.deepcopy(passes)
    broken.summaries[0][1]["tenants"][0]["slowdown"] = float("nan")
    broken.summaries[0][2] = None
    broken.errors[0][2] = "Traceback ...\nValueError: boom\n"
    problems, _ = run.evaluate(workload, broken)
    assert any("is nan" in p for p in problems[1])
    assert problems[2][0] == "raised: ValueError: boom"


def test_the_paper_claims_fail_when_the_ordering_breaks():
    summaries = [
        {
            "workload": n,
            "prefetch_gain": g,
            "prefetch_excess_traffic": x,
            "pooled": [{"max_performance_loss": loss} for _ in suite.PROFILE_FRACTIONS],
        }
        for n, g, x, loss in (
            ("HPL", 0.1, 0.1, 0.01),
            ("Hypre", 0.2, 0.1, 0.3),
            ("NekRS", 0.5, 0.1, 0.2),
            ("BFS", 0.1, 0.1, 0.4),
            ("SuperLU", 0.1, 0.4, 0.05),
            ("XSBench", 0.0, 0.0, 0.01),
        )
    ]
    assert suite.check_profile_claims(summaries) == []
    summaries[0]["prefetch_gain"] = 0.9
    summaries[1]["pooled"][-1]["max_performance_loss"] = 0.0
    problems = suite.check_profile_claims(summaries)
    assert any("NekRS" in p for p in problems)
    assert any("Hypre" in p and str(suite.PROFILE_FRACTIONS[-1]) in p for p in problems)


def test_a_diverging_pass_fails_the_determinism_check():
    workload, passes = _summaries("rack-whatif")
    twice = run.Passes(
        summaries=passes.summaries + copy.deepcopy(passes.summaries),
        latencies=passes.latencies * 2,
        errors=passes.errors * 2,
    )
    same, _ = run.evaluate(workload, twice)
    assert not any("digest" in p for found in same for p in found)
    twice.summaries[1][0]["tenants"][0]["baseline_s"] += 1e-9
    problems, _ = run.evaluate(workload, twice)
    assert all(any("digest" in p for p in found) for found in problems[len(passes.summaries[0]):])


def test_the_same_seed_gives_the_same_digest():
    digests = set()
    for _ in range(2):
        workload, passes = _summaries("coupled-cluster", seed=9)
        digests.add(run.evaluate(workload, passes)[1])
    assert len(digests) == 1


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_self_times_and_unclaimed_time_add_up_to_the_traced_wall(name):
    workload = suite.WORKLOADS[name]
    items = workload.setup(2, TINY)
    tracer = SpanTracer()
    tracer.install()
    try:
        tracer.root(lambda: run.run_passes(items, passes=1))
    finally:
        tracer.uninstall()
    self_s, _ = tracer.totals()
    assert sum(self_s.values()) == pytest.approx(tracer.root_wall(), rel=1e-9)
    metrics = run.layer_metrics(self_s, {}, 0, _EmptyRegistry(), passes=1)
    layers = [
        "scheduler.self_s", "data.slurm.self_s", "fabric.self_s", "sim.engine.self_s",
        "sim.perfmodel.self_s", "interconnect.link.self_s", "profiler.level1.self_s",
        "profiler.level2.self_s", "profiler.level3.self_s", "memory.tiered.self_s",
        "trace.access.self_s", "casestudies.self_s", "bench.unclaimed_s",
    ]
    total = sum(metrics[k][0] for k in layers)
    assert total == pytest.approx(metrics["bench.traced_wall_s"][0], rel=1e-9)
    assert total == pytest.approx(tracer.root_wall(), rel=1e-9)
    shares = run.layer_shares(self_s)
    assert sum(shares.values()) == pytest.approx(1.0)


class _EmptyRegistry:
    def get(self, name):
        return None


def test_uninstall_restores_every_wrapped_method():
    from repro.data.slurm import SacctReader
    from repro.sim.perfmodel import PerformanceModel
    from repro.trace.access import PageAccessProfile

    before = (PerformanceModel.phase_time, SacctReader.__iter__, PageAccessProfile.__dict__["from_batch"])
    tracer = SpanTracer()
    tracer.install()
    assert PerformanceModel.phase_time is not before[0]
    tracer.uninstall()
    after = (PerformanceModel.phase_time, SacctReader.__iter__, PageAccessProfile.__dict__["from_batch"])
    assert after == before


def test_tail_percentile_keeps_ten_items_beyond_it():
    assert run.tail_percentile(19) is None
    for count in (20, 24, 36, 90, 200):
        p = run.tail_percentile(count)
        assert count - math.ceil(p * count / 100) >= 10
        assert p == 99 or count - math.ceil((p + 1) * count / 100) < 10


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rack-whatif", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
