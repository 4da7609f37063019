"""The per-tenant rate memo is exact, and it is what keeps the rate model cheap.

Each tenant memoises its last ``RackCoSimulator._unit_time`` answer keyed on
its phase profile and background (see ``docs/architecture.md``, "Per-tenant
rate memo").  The memo must be invisible: racks run plain and under faults
with an elastic pool, and a fabric-coupled scheduling stream, give
bit-identical results with it bypassed.  It must also pay off: the coupled
stream stays far below the ~32k ``PerformanceModel.phase_time`` calls it made
without the memo.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.casestudies.scheduling import CoupledSchedulingStudy
from repro.fabric import (
    FaultSchedule,
    MemoryPool,
    RackCoSimulator,
    TenantSpec,
    uniform_tenants,
)
from repro.fabric.cosim import _TenantState
from repro.sim.perfmodel import PerformanceModel
from repro.workloads import build_all, build_workload


@pytest.fixture
def memo_bypassed(monkeypatch):
    """Clear each tenant's memo before every rate query (the memo-free path)."""
    original = RackCoSimulator._unit_time

    def bypass(self, state, profile, background):
        state.unit_time_memo = None
        return original(self, state, profile, background)

    def arm():
        monkeypatch.setattr(RackCoSimulator, "_unit_time", bypass)

    return arm


@pytest.fixture
def phase_time_calls(monkeypatch):
    """Count every ``PerformanceModel.phase_time`` call (engine runs included)."""
    calls = [0]
    original = PerformanceModel.phase_time

    def counting(self, inputs):
        calls[0] += 1
        return original(self, inputs)

    monkeypatch.setattr(PerformanceModel, "phase_time", counting)
    return calls


def rack_fingerprint(result) -> tuple:
    """Everything a rack run reports, in a form compared bit for bit."""
    timelines = tuple(
        (
            t.name,
            tuple(result.interference_for(t.name).times.tolist()),
            tuple(result.interference_for(t.name).bandwidths.tolist()),
        )
        for t in result.tenants
        if t.start_time is not None
    )
    return (
        result.tenants,
        result.makespan,
        result.max_leased_bytes,
        result.epoch_seconds,
        repr(result.telemetry.series()),
        timelines,
        None if result.blast_radius is None else repr(result.blast_radius.summary()),
    )


def run_rack(workload: str, n: int, chaos: bool) -> tuple:
    spec = build_workload(workload)
    tenants = uniform_tenants(spec, n, local_fraction=0.5, stagger=1.5)
    if not chaos:
        return rack_fingerprint(RackCoSimulator(tenants, seed=7).run())
    need = sum(t.lease_bytes for t in tenants)
    pool = MemoryPool(capacity_bytes=int(need * 0.6), elastic=True)
    sim = RackCoSimulator(tenants, pool=pool, seed=7)
    sim.inject_faults(
        FaultSchedule.seeded(
            seed=11 + n,
            horizon=40.0,
            n_events=4,
            kinds=("port-kill", "port-degrade", "lease-revoke"),
            n_ports=1,
            tenants=[t.name for t in tenants],
            mean_duration=3.0,
        )
    )
    return rack_fingerprint(sim.run())


@pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos"])
@pytest.mark.parametrize("n", [2, 8])
@pytest.mark.parametrize("workload", ["Hypre", "BFS", "XSBench"])
def test_rack_results_identical_with_memo_bypassed(
    workload, n, chaos, memo_bypassed, phase_time_calls
):
    memoised = run_rack(workload, n, chaos)
    memo_calls = phase_time_calls[0]
    memo_bypassed()
    phase_time_calls[0] = 0
    assert run_rack(workload, n, chaos) == memoised
    # The bypass really took the memo-free path.
    assert phase_time_calls[0] > memo_calls


def coupled_stream():
    study = CoupledSchedulingStudy(
        n_racks=4,
        nodes_per_rack=4,
        pool_capacity_gb=4.0,
        cluster_pool_gb=8.0,
        policy="cluster-fabric",
        seed=5,
    )
    return study.run(build_all(1.0), copies=2, stagger=5.0)


def schedule_fingerprint(outcome) -> tuple:
    return (
        outcome.makespan,
        tuple(
            (j.job_id, j.submit_time, j.start_time, j.finish_time, j.assigned_rack, j.assigned_node)
            for j in outcome.jobs
        ),
    )


def test_coupled_stream_identical_with_memo_bypassed(memo_bypassed):
    memoised = coupled_stream()
    memo_bypassed()
    bypassed = coupled_stream()
    assert len(memoised.coupled.jobs) == 12
    for leg in ("static", "coupled"):
        assert schedule_fingerprint(getattr(bypassed, leg)) == schedule_fingerprint(
            getattr(memoised, leg)
        )


def test_coupled_stream_makes_few_rate_model_calls(phase_time_calls):
    result = coupled_stream()
    assert all(j.finished for j in result.coupled.jobs)
    assert phase_time_calls[0] < 1_000


def test_memo_is_cleared_when_the_tenant_is_profiled():
    sim = RackCoSimulator(uniform_tenants(build_workload("XSBench"), 1))
    state = _TenantState(sim.tenants[0], node=0)
    sim._profile_tenant(state, {})
    profile = state.phases[0]
    first = sim._unit_time(state, profile, 1e9)
    assert state.unit_time_memo == (profile, 1e9, first)
    sim._profile_tenant(state, {})
    assert state.unit_time_memo is None


def test_profile_cache_ignores_an_entry_of_a_dead_workload():
    # A workload allocated at the address of a freed one must not inherit the
    # freed workload's phases from the id-keyed baseline-profile cache.
    hypre, xsbench = build_workload("Hypre"), build_workload("XSBench")
    sim = RackCoSimulator.incremental(n_nodes=2)
    stale = RackCoSimulator.incremental(n_nodes=1)
    probe = _TenantState(TenantSpec("probe", hypre), node=0)
    stale._profile_tenant(probe, stale._run_state.profiles)
    (entry,) = stale._run_state.profiles.values()
    sim._run_state.profiles[(id(xsbench), 0.5)] = entry

    sim.admit(TenantSpec("x", xsbench), node=0)
    state = sim.tenant_states["x"]
    fresh = _TenantState(TenantSpec("ref", xsbench), node=0)
    RackCoSimulator.incremental(n_nodes=1)._profile_tenant(fresh, {})
    assert state.phases == fresh.phases
    assert state.baseline_runtime == fresh.baseline_runtime
    assert not np.isclose(state.baseline_runtime, probe.baseline_runtime)
