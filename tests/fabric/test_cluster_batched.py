"""Cluster epoch stepping: scalar vs vectorized solver through the one path.

Every rack advances through the fault-aware ``RackCoSimulator.step_frozen``
kernel and all due racks roll over in one call at the cluster boundary; the
fabric's ``solver`` only picks how the dirty racks' solves run (one batched
NumPy solve, or per-rack scalar reference solves).  This suite holds the two
solvers to the same differential standard as ``test_solver_equivalence.py``:
trajectories must agree within solver tolerance (both solve paths land within
``TOLERANCE`` of the fixed point, hence within ``2 * TOLERANCE`` of each
other — a relative rate disagreement of about ``AGREEMENT /
remote_bandwidth``), and the bookkeeping — epoch-skip counters, checkpoint
fidelity, fault handling — must be indistinguishable.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import telemetry
from repro.fabric import (
    ClusterCoSimulator,
    ClusterFabric,
    FabricTopology,
    RackCoSimulator,
    uniform_tenants,
)
from repro.fabric.faults import FaultSchedule, parse_fault_spec

#: Solver-equivalence bounds shared with ``test_solver_equivalence.py``:
#: each path lands within TOLERANCE (1e6 B/s) of the fixed point, so two
#: paths disagree by at most AGREEMENT in delivered bytes/s.
TOLERANCE = 1e6
AGREEMENT = 2 * TOLERANCE

#: Rate-space agreement bound: AGREEMENT in delivered bytes/s is
#: AGREEMENT / remote_bandwidth (~1e-4) in relative progress-rate terms.
RATE_RTOL = 1e-3

SOLVERS = ("scalar", "vectorized")


def build_cluster(solver="vectorized", n_racks=4, **kwargs):
    fabric = ClusterFabric(
        n_racks=n_racks, nodes_per_rack=4, n_ports=2, solver=solver
    )
    return ClusterCoSimulator(fabric, seed=0, **kwargs)


def populate(sim, spec, per_rack=2):
    tenants = uniform_tenants(spec, per_rack, local_fraction=0.5)
    for rack in range(sim.fabric.n_racks):
        for i, tenant in enumerate(tenants):
            sim.admit(rack, replace(tenant, name=f"r{rack}-{tenant.name}"), node=i)
    return sim


def trajectory(sim, steps=8):
    dt = sim.horizon() / 2
    samples = []
    for _ in range(steps):
        sim.step(dt)
        samples.append((sim.clock, dict(sim.progress_rates())))
    return samples


def assert_trajectories_close(a, b, rtol=RATE_RTOL):
    assert len(a) == len(b)
    for (clock_a, rates_a), (clock_b, rates_b) in zip(a, b):
        assert clock_a == pytest.approx(clock_b, rel=1e-9)
        assert set(rates_a) == set(rates_b)
        for name in rates_a:
            assert rates_a[name] == pytest.approx(rates_b[name], rel=rtol), name


def fault_schedule(spec):
    """A port kill on rack 0 and a lease revocation on rack 1; racks 2 and 3
    stay fault-free."""
    tenant = f"r1-{uniform_tenants(spec, 1)[0].name}"
    return FaultSchedule(
        (
            parse_fault_spec("port-kill@2.0:rack=0,port=0,duration=1.5"),
            parse_fault_spec(f"lease-revoke@3.0:rack=1,tenant={tenant}"),
        )
    )


class TestEquivalence:
    def test_batched_matches_scalar_per_rack(self, xsbench_spec):
        """The acceptance test: batched vectorized vs per-rack scalar solves."""
        scalar = populate(build_cluster(solver="scalar"), xsbench_spec)
        batched = populate(build_cluster(solver="vectorized"), xsbench_spec)
        assert_trajectories_close(trajectory(scalar), trajectory(batched))

    def test_run_to_completion_agrees(self, xsbench_spec):
        runtimes = {}
        for solver in SOLVERS:
            sim = populate(build_cluster(solver=solver), xsbench_spec)
            summary = sim.run_to_completion()
            runtimes[solver] = {t["name"]: t["runtime_s"] for t in summary["tenants"]}
        assert set(runtimes["scalar"]) == set(runtimes["vectorized"])
        for name, runtime in runtimes["scalar"].items():
            assert runtimes["vectorized"][name] == pytest.approx(runtime, rel=1e-3)

    def test_mid_epoch_churn_desyncs_and_recovers(self, xsbench_spec):
        """Admission mid-epoch desyncs one rack's epoch clock; both solvers
        must keep agreeing while it rolls alone and after it realigns."""
        extra = uniform_tenants(xsbench_spec, 1, local_fraction=0.5)[0]
        trajectories = {}
        for solver in SOLVERS:
            sim = populate(build_cluster(solver=solver), xsbench_spec)
            samples = []
            dt = sim.horizon() / 3
            sim.step(dt)
            sim.admit(1, replace(extra, name="late-arrival"), node=2)
            for _ in range(8):
                sim.step(dt)
                samples.append((sim.clock, dict(sim.progress_rates())))
            trajectories[solver] = samples
        assert_trajectories_close(trajectories["scalar"], trajectories["vectorized"])

    def test_cluster_matches_standalone_rack(self, xsbench_spec):
        """One tenant in a 2-rack cluster steps exactly like a standalone rack
        driven with the same ``step`` calls."""
        tenant = uniform_tenants(xsbench_spec, 1, local_fraction=0.5)[0]
        cluster = build_cluster(n_racks=2)
        cluster.admit(0, tenant, node=0)
        rack = RackCoSimulator.incremental(
            n_nodes=4, topology=FabricTopology(n_nodes=4, n_ports=2), seed=0
        )
        rack.admit(tenant, node=0)
        dt = cluster.epoch_seconds / 3
        for _ in range(200):
            assert cluster.step(dt) == pytest.approx(rack.step(dt), rel=1e-12)
            assert cluster.clock == pytest.approx(rack.clock, rel=1e-12)
            assert cluster.progress_rates() == pytest.approx(
                rack.progress_rates(), rel=1e-12
            )
        state = rack.tenant_states[tenant.name]
        assert state.finished
        finish = cluster.rack_sim(0).tenant_states[tenant.name].finish_time
        assert finish == pytest.approx(state.finish_time, rel=1e-12)

    def test_faulted_cluster_scalar_matches_vectorized(self, xsbench_spec, monkeypatch):
        """Faults on two racks: both solvers agree, the revoked tenant is
        re-admitted, and the fault-free racks still roll over in one batched
        solve at every cluster boundary."""
        revoked = f"r1-{uniform_tenants(xsbench_spec, 1)[0].name}"
        batches = []
        summaries = {}
        for solver in SOLVERS:
            sim = populate(build_cluster(solver=solver), xsbench_spec)
            sim.inject_faults(fault_schedule(xsbench_spec))
            for rack_sim in sim.rack_sims:
                rack_sim.skip_unchanged_epochs = False
            if solver == "vectorized":
                resolve_racks = sim.fabric.resolve_racks

                def recording(indices, demands, *args, **kwargs):
                    busy = {
                        rack
                        for rack in (2, 3)
                        if any(
                            state.running
                            for state in sim.rack_sim(rack).tenant_states.values()
                        )
                    }
                    batches.append((set(indices), busy))
                    return resolve_racks(indices, demands, *args, **kwargs)

                monkeypatch.setattr(sim.fabric, "resolve_racks", recording)
            summaries[solver] = sim.run_to_completion()
        runtimes = {
            solver: {t["name"]: t["runtime_s"] for t in summary["tenants"]}
            for solver, summary in summaries.items()
        }
        assert set(runtimes["scalar"]) == set(runtimes["vectorized"])
        for name, runtime in runtimes["scalar"].items():
            assert runtime > 0, name
            assert runtimes["vectorized"][name] == pytest.approx(runtime, rel=1e-3)
        for summary in summaries.values():
            faults = summary["faults"]
            assert faults["faults_injected"] == 3  # kill, paired restore, revoke
            impact = {t["name"]: t for t in faults["tenants"]}[revoked]
            assert impact["revocations"] == 1
            assert impact["readmission_latency_s"] is not None
            assert all(t["lease_state"] == "granted" for t in summary["tenants"])
        assert sum(1 for _, busy in batches if busy == {2, 3}) > 10
        assert all(busy <= indices for indices, busy in batches)


class TestBookkeeping:
    def test_faults_step_through_the_frozen_kernel(self, xsbench_spec):
        sim = populate(build_cluster(), xsbench_spec)
        schedule = FaultSchedule((parse_fault_spec("port-kill@0.01:rack=0,port=0"),))
        sim.inject_faults(schedule)
        sim.step(sim.horizon() / 2)
        sim.step(sim.epoch_seconds)
        assert not sim.faults_pending()
        assert sim.rack_sim(0).port_health(0) == 0.0
        assert sim.blast_radius().faults_injected == 1

    def test_skip_counters_identical_across_paths(self, xsbench_spec):
        counts = {}
        for solver in SOLVERS:
            telemetry.enable(reset=True)
            try:
                sim = populate(build_cluster(solver=solver), xsbench_spec)
                dt = sim.horizon() / 2
                for _ in range(6):
                    sim.step(dt)
                registry = telemetry.registry()
                counts[solver] = {
                    name: registry.counter(name).value
                    for name in (
                        "fabric.cosim.epoch_rollovers",
                        "fabric.cosim.epoch_resolves",
                        "fabric.cosim.epoch_skips",
                    )
                }
            finally:
                telemetry.disable()
                telemetry.registry().reset()
                telemetry.tracer().reset()
        assert counts["scalar"] == counts["vectorized"]

    def test_checkpoint_rollback_replays_batched_path(self, xsbench_spec):
        sim = populate(build_cluster(), xsbench_spec)
        dt = sim.horizon() / 2
        sim.step(dt)
        checkpoint = sim.checkpoint()
        first = trajectory(sim, steps=4)
        sim.rollover(checkpoint)
        second = trajectory(sim, steps=4)
        assert first == second
