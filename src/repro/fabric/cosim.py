"""Rack co-simulation: tenants sharing a memory pool over a contended fabric.

:class:`RackCoSimulator` closes the loop between the per-node execution engine
and the rack: instead of injecting a configured Level of Interference, each
tenant's effective pool bandwidth is **re-derived every epoch from what its
co-runners are actually demanding** on the shared pool port.  Interference is
emergent:

1. every tenant first leases its remote capacity from the rack's
   :class:`~repro.fabric.pool.MemoryPool` (granted / queued / rejected),
2. each epoch, the offered bandwidth of every running tenant's current phase
   is resolved through the :class:`~repro.fabric.topology.FabricTopology`,
   giving each tenant the background its co-runners generate,
3. the per-node performance model converts that background into the epoch's
   progress rate, so a tenant in a bandwidth-hungry phase slows everyone on
   its port down — and finishes later itself, prolonging the interference it
   causes (the feedback the static-LoI model cannot express),
4. completed tenants return their leases, admitting queued tenants.

Baseline phase runtimes and traffic come from one interference-free
:class:`~repro.sim.engine.ExecutionEngine` run per tenant, so the co-simulation
inherits the full cache/prefetch/placement behaviour of the single-node model.

Coupling contract (used by :mod:`repro.scheduler.progress`)
-----------------------------------------------------------

The co-simulator has one engine, the **incremental** API below; the
closed-loop :meth:`RackCoSimulator.run` is just one driver of it (it admits
tenants at their exact arrival times and returns finished tenants' leases),
and an external scheduler is another, one rack per simulator:

* **Units.**  Progress is measured in *baseline seconds*: one baseline second
  is the work the tenant completes per wall-clock second on an idle fabric.
  Bandwidths are bytes/s of *data* payload (protocol overhead is the
  :class:`~repro.interconnect.link.RemoteLink`'s job); times are simulated
  wall-clock seconds.
* **Epoch semantics.**  Backgrounds (what each tenant's co-runners deliver
  through its pool port) are re-resolved only at *epoch rollovers*: every
  ``epoch_seconds`` of stepped time, and immediately on tenant admission or
  withdrawal.  Between rollovers backgrounds are frozen, so per-phase progress
  rates are piecewise constant and an external event loop can do exact linear
  completion-time bookkeeping as long as it never steps past
  :meth:`RackCoSimulator.horizon` in one go.  :meth:`RackCoSimulator.step_frozen`
  is the one intra-epoch kernel; :meth:`RackCoSimulator.step` is that kernel
  plus a rollover at every epoch boundary.
* **Tenant ↔ job mapping.**  The scheduler maps each running job onto one
  :class:`TenantSpec` (one tenant per occupied node); it calls
  :meth:`RackCoSimulator.admit` when the job starts and
  :meth:`RackCoSimulator.withdraw` when it retires the job.  Unlike
  :meth:`run`, incremental stepping never releases pool leases on its own —
  lease lifetime is exactly job lifetime, owned by the scheduler.
* **Checkpoint / rollover.**  A simulator is configuration (tenants,
  topology, pool, testbed, seed — fixed after construction) plus run state:
  one record holding the clock, epoch length and elapsed time, frozen
  backgrounds, external offsets and solve key, and one progress record per
  tenant (phase, phase elapsed, finish time and the fault fields — stall,
  migration debt, revocation, migrated bytes — always included).
  :meth:`RackCoSimulator.checkpoint` copies those records plus each tenant's
  background-history length; :meth:`RackCoSimulator.rollover` restores the
  copies so speculative steps — e.g. stepping to an estimated completion
  that an earlier arrival then invalidates — can be re-taken.  Checkpoints
  stay valid only while the tenant mix is unchanged.
* **Faults.**  An injected :class:`~repro.fabric.faults.FaultSchedule`
  (see :meth:`RackCoSimulator.inject_faults`) fires at exact simulated times:
  the step kernel sub-chunks at fault times, each applied fault forces an
  epoch rollover (dirtying the solver key), and the damage is summarised by
  :meth:`RackCoSimulator.blast_radius`.  With no faults injected and a
  non-elastic pool, the fault layer is one boolean check per step chunk; a
  fault that never fires or an elastic pool under no pressure gives the same
  answer as a plain run.  Rollback across an *applied* fault raises
  (pool/lease state is not checkpointed), while rollback with faults merely
  pending is bit-identical as before.  See ``docs/failure_model.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from ..config.errors import FabricError
from ..config.testbed import SKYLAKE_EMULATION, TestbedConfig
from ..sim.engine import ExecutionEngine
from ..sim.perfmodel import PerformanceModel, PhaseInputs
from ..sim.platform import Platform
from ..telemetry import TimeSeries, metrics, trace_span
from ..workloads.base import WorkloadSpec
from .faults import (
    DEFAULT_DRAIN_BYTES_PER_S,
    FAULT_LEASE_REVOKE,
    FAULT_LEASE_SHRINK,
    FAULT_POOL_CAPACITY_LOSS,
    FAULT_PORT_DEGRADE,
    FAULT_PORT_KILL,
    FAULT_PORT_RESTORE,
    BlastRadiusReport,
    FaultEvent,
    FaultSchedule,
    TenantImpact,
)
from .interference import DynamicInterference
from .pool import (
    LEASE_GRANTED,
    LEASE_QUEUED,
    LEASE_REJECTED,
    LEASE_REVOKED,
    MemoryPool,
    PoolSample,
)
from .topology import FabricTopology


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the rack: a workload bound to a node and a pool share.

    Attributes
    ----------
    name:
        Unique tenant name (job identifier).
    workload:
        The workload specification the tenant executes.
    local_fraction:
        Fraction of the workload's footprint served by node-local memory; the
        remainder is leased from the shared pool (the paper's 75/50/25 splits).
    arrival:
        Simulated submit time, seconds.
    pool_bytes:
        Explicit pool lease size; None derives it from the footprint and
        ``local_fraction``.
    """

    name: str
    workload: WorkloadSpec
    local_fraction: float = 0.5
    arrival: float = 0.0
    pool_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.local_fraction <= 1.0:
            raise FabricError(f"tenant {self.name!r}: local_fraction must be in (0, 1]")
        if self.arrival < 0:
            raise FabricError(f"tenant {self.name!r}: arrival must be >= 0")
        if self.pool_bytes is not None and self.pool_bytes < 0:
            raise FabricError(f"tenant {self.name!r}: pool_bytes must be >= 0")

    @property
    def lease_bytes(self) -> int:
        """Pool capacity the tenant leases while it runs, bytes."""
        if self.pool_bytes is not None:
            return int(self.pool_bytes)
        return int(round(self.workload.footprint_bytes * (1.0 - self.local_fraction)))


def uniform_tenants(
    workload: WorkloadSpec,
    n: int,
    local_fraction: float = 0.5,
    stagger: float = 0.0,
    pool_bytes: Optional[int] = None,
) -> list[TenantSpec]:
    """``n`` identical tenants of one workload, arrivals ``stagger`` s apart.

    The shared constructor behind the CLI, the figure builder and the
    benchmark sweep, so the tenant-naming and arrival conventions stay in one
    place.
    """
    if n <= 0:
        raise FabricError("need at least one tenant")
    return [
        TenantSpec(
            name=f"{workload.name}-{i}",
            workload=workload,
            local_fraction=local_fraction,
            arrival=i * stagger,
            pool_bytes=pool_bytes,
        )
        for i in range(n)
    ]


def _step_to(sim, time: Optional[float], action: str) -> None:
    """Step a rack or cluster simulator forward to ``time`` before ``action``.

    ``None`` stays at the current clock; a time more than 1 ns in the past
    raises instead of silently acting at the current clock.
    """
    if time is None:
        return
    if time < sim.clock - 1e-9:
        raise FabricError(f"cannot {action} a tenant in the past")
    if time > sim.clock:
        sim.step(time - sim.clock)


@dataclass(frozen=True)
class _PhaseProfile:
    """Interference-free reference behaviour of one phase of one tenant."""

    runtime: float
    flops: float
    local_bytes: float
    remote_bytes: float
    coverage: float
    mlp: float
    unit_time_idle: float

    @property
    def offered_bandwidth(self) -> float:
        """Pool bandwidth the phase demands when running at full speed, bytes/s."""
        return self.remote_bytes / max(self.runtime, 1e-12)


@dataclass
class _Progress:
    """A tenant's mutable progress: everything a rollback restores per tenant."""

    phase_index: int = 0
    phase_elapsed: float = 0.0  # baseline-seconds completed in the current phase
    finish_time: Optional[float] = None
    # Fault bookkeeping (all zero/None on the fault-free path).
    stall_seconds: float = 0.0  # wall time lost to faults
    migration_debt: float = 0.0  # page give-back drain still owed, wall-seconds
    revoked_at: Optional[float] = None
    readmit_latency: Optional[float] = None
    revocations: int = 0
    migrated_bytes: int = 0
    # A revocation replaces the lease, so the original grant time (the
    # tenant's true start for wait/runtime accounting) is stashed here.
    first_granted_at: Optional[float] = None


class _TenantState:
    """One tenant during the co-simulation: its profile, lease and progress."""

    def __init__(self, spec: TenantSpec, node: int) -> None:
        self.spec = spec
        self.node = node
        self.lease = None
        self.platform: Optional[Platform] = None
        self.perf: Optional[PerformanceModel] = None
        self.phases: tuple[_PhaseProfile, ...] = ()
        self.baseline_runtime = 0.0
        self.progress = _Progress()
        self.background_times: list[float] = []
        self.background_bandwidths: list[float] = []
        #: One-slot memo of the last rate-model solve: (phase profile,
        #: background, unit time).  See RackCoSimulator._unit_time.
        self.unit_time_memo: Optional[tuple[_PhaseProfile, float, float]] = None

    @property
    def start_time(self) -> Optional[float]:
        """Grant time of the tenant's *first* lease (survives revocations)."""
        if self.progress.first_granted_at is not None:
            return self.progress.first_granted_at
        return self.lease.granted_at if self.lease is not None else None

    @property
    def finish_time(self) -> Optional[float]:
        return self.progress.finish_time

    @property
    def finished(self) -> bool:
        return self.progress.finish_time is not None

    @property
    def running(self) -> bool:
        return (
            self.lease is not None
            and self.lease.state == LEASE_GRANTED
            and not self.finished
        )

    @property
    def awaiting_regrant(self) -> bool:
        """Revoked and not yet re-granted: the tenant makes no progress."""
        progress = self.progress
        return (
            progress.finish_time is None
            and not self.running
            and progress.revoked_at is not None
            and progress.readmit_latency is None
        )

    def record_background(self, time: float, background: float) -> None:
        """Append a background point (a same-instant point is overwritten)."""
        if self.background_times and self.background_times[-1] >= time - 1e-12:
            self.background_bandwidths[-1] = background
        else:
            self.background_times.append(time)
            self.background_bandwidths.append(background)

    def current_offered_bandwidth(self) -> float:
        index = self.progress.phase_index
        if index >= len(self.phases):
            return 0.0
        return self.phases[index].offered_bandwidth


@dataclass(frozen=True)
class TenantOutcome:
    """Final per-tenant statistics of one co-simulation run."""

    name: str
    workload: str
    node: int
    arrival: float
    start_time: Optional[float]
    finish_time: Optional[float]
    baseline_runtime: float
    lease_bytes: int
    lease_state: str
    mean_background_bandwidth: float

    @property
    def runtime(self) -> float:
        """Wall-clock execution time while running (0 if the tenant never ran)."""
        if self.start_time is None or self.finish_time is None:
            return 0.0
        return self.finish_time - self.start_time

    @property
    def wait_time(self) -> float:
        """Delay between arrival and lease grant (0 if never granted)."""
        if self.start_time is None:
            return 0.0
        return self.start_time - self.arrival

    @property
    def slowdown(self) -> float:
        """Execution time relative to the interference-free baseline (>= ~1)."""
        if self.runtime <= 0 or self.baseline_runtime <= 0:
            return 1.0
        return self.runtime / self.baseline_runtime


#: Columns of the per-rack epoch timeline (shared by every RackTelemetry).
_TIMELINE_COLUMNS = (
    "leased_bytes",
    "queue_depth",
    "active_tenants",
    "max_port_utilization",
    "max_port_waiting_ns",
)


class RackTelemetry:
    """Epoch-resolution timeline of the shared pool and its fabric ports.

    A thin adapter over one :class:`repro.telemetry.TimeSeries` — the rows
    live in the telemetry instrument, not in a parallel set of hand-rolled
    lists — plus live registry gauges (``fabric.pool.leased_bytes``,
    ``fabric.pool.queue_depth``) and a ``fabric.port.utilization`` histogram
    updated on every recorded epoch.  The timeline itself always records
    (it is simulation output feeding the pool-timeline figure), while the
    registry side honours the process-wide telemetry enable flag.  The
    public :meth:`series` shape is unchanged.
    """

    def __init__(self, series: Optional[TimeSeries] = None) -> None:
        self._timeline = (
            series
            if series is not None
            else TimeSeries("fabric.rack.timeline", _TIMELINE_COLUMNS)
        )

    # Column views (kept for callers that index the raw timeline).

    @property
    def times(self) -> list[float]:
        return self._timeline.times

    @property
    def leased_bytes(self) -> list[int]:
        return self._timeline.column("leased_bytes")

    @property
    def queue_depth(self) -> list[int]:
        return self._timeline.column("queue_depth")

    @property
    def active_tenants(self) -> list[int]:
        return self._timeline.column("active_tenants")

    @property
    def max_port_utilization(self) -> list[float]:
        return self._timeline.column("max_port_utilization")

    @property
    def max_port_waiting_ns(self) -> list[float]:
        return self._timeline.column("max_port_waiting_ns")

    def __len__(self) -> int:
        return len(self._timeline)

    def record(
        self, sample: PoolSample, utilization: float, waiting_seconds: float
    ) -> None:
        self._timeline.append(
            sample.time,
            leased_bytes=sample.leased_bytes,
            queue_depth=sample.queue_depth,
            active_tenants=sample.active_leases,
            max_port_utilization=utilization,
            max_port_waiting_ns=waiting_seconds / 1e-9,
        )
        registry = metrics()
        registry.gauge("fabric.pool.leased_bytes").set(sample.leased_bytes)
        registry.gauge("fabric.pool.queue_depth").set(sample.queue_depth)
        registry.histogram("fabric.port.utilization").observe(utilization)

    def drop_last(self) -> None:
        """Remove the most recent epoch sample (same-instant re-record)."""
        self._timeline.drop_last()

    def trim_after(self, time: float) -> None:
        """Drop samples recorded after ``time`` (checkpoint rollback)."""
        self._timeline.trim_after(time)

    def series(self) -> dict:
        """The timeline as plain arrays (for figures and JSON output)."""
        raw = self._timeline.series()
        return {
            "time": raw["time"],
            "leased_gb": [b / 1e9 for b in raw["leased_bytes"]],
            "queue_depth": raw["queue_depth"],
            "active_tenants": raw["active_tenants"],
            "max_port_utilization": raw["max_port_utilization"],
            "max_port_waiting_ns": raw["max_port_waiting_ns"],
        }


@dataclass(frozen=True)
class RackCoSimResult:
    """Everything one rack co-simulation produced."""

    tenants: tuple[TenantOutcome, ...]
    telemetry: RackTelemetry
    makespan: float
    pool_capacity_bytes: int
    max_leased_bytes: int
    epoch_seconds: float
    _interference: dict
    #: Fault damage assessment; None unless the fault layer was armed (a
    #: non-empty fault schedule or an elastic pool).
    blast_radius: Optional[BlastRadiusReport] = None

    @property
    def finished_tenants(self) -> tuple[TenantOutcome, ...]:
        """Tenants that ran to completion."""
        return tuple(t for t in self.tenants if t.finish_time is not None)

    @property
    def mean_slowdown(self) -> float:
        """Average slowdown of the finished tenants."""
        finished = self.finished_tenants
        if not finished:
            return 1.0
        return float(np.mean([t.slowdown for t in finished]))

    @property
    def mean_runtime(self) -> float:
        """Average wall-clock execution time of the finished tenants."""
        finished = self.finished_tenants
        if not finished:
            return 0.0
        return float(np.mean([t.runtime for t in finished]))

    def tenant(self, name: str) -> TenantOutcome:
        """Look up one tenant's outcome by name."""
        for outcome in self.tenants:
            if outcome.name == name:
                return outcome
        raise KeyError(f"no tenant named {name!r}")

    def interference_for(self, name: str) -> DynamicInterference:
        """The background-bandwidth timeline a tenant experienced, as an
        :class:`~repro.sim.interference.InterferenceSource` for the engine."""
        try:
            return self._interference[name]
        except KeyError as exc:
            raise FabricError(
                f"tenant {name!r} never ran, so no interference timeline exists"
            ) from exc

    def summary(self) -> dict:
        """Aggregate + per-tenant summary (CLI/benchmark friendly)."""
        summary = {
            "makespan": self.makespan,
            "mean_slowdown": self.mean_slowdown,
            "mean_runtime": self.mean_runtime,
            "pool_capacity_gb": self.pool_capacity_bytes / 1e9,
            "max_leased_gb": self.max_leased_bytes / 1e9,
            "epoch_seconds": self.epoch_seconds,
            "tenants": [
                {
                    "name": t.name,
                    "workload": t.workload,
                    "node": t.node,
                    "lease_state": t.lease_state,
                    "lease_gb": t.lease_bytes / 1e9,
                    "wait_s": t.wait_time,
                    "runtime_s": t.runtime,
                    "baseline_s": t.baseline_runtime,
                    "slowdown": t.slowdown,
                    "mean_background_gbs": t.mean_background_bandwidth / 1e9,
                }
                for t in self.tenants
            ],
        }
        if self.blast_radius is not None:
            summary["faults"] = self.blast_radius.summary()
        return summary


@dataclass
class _RunState:
    """Everything stepping mutates on a rack besides its tenants' progress."""

    clock: float = 0.0
    #: Epoch length; None until ``epoch_seconds`` or the first tenant sets it.
    epoch: Optional[float] = None
    epoch_elapsed: float = 0.0
    #: The current epoch's frozen background per node, bytes/s.
    backgrounds: dict[int, float] = field(default_factory=dict)
    #: External (outside-the-rack) background per node, bytes/s.
    offsets: dict[int, float] = field(default_factory=dict)
    #: Signature of the epoch state the current backgrounds were resolved
    #: for — when the next rollover poses the identical problem, the
    #: fixed-point solve is skipped (see ``skip_unchanged_epochs``).
    solve_key: Optional[tuple] = None
    #: Baseline-profile cache (see ``RackCoSimulator._profile_tenant``).
    profiles: dict = field(default_factory=dict)

    def copy(self, **changes) -> "_RunState":
        """A copy whose per-node maps can be mutated independently."""
        return replace(
            self, backgrounds=dict(self.backgrounds), offsets=dict(self.offsets), **changes
        )


@dataclass(frozen=True)
class EpochCheckpoint:
    """Snapshot of an incrementally-driven co-simulation's run state.

    Holds a copy of the rack's run state (clock, epoch length and elapsed
    time, frozen backgrounds, external offsets, solve key) and of every
    tenant's progress record (phase progress, finish time and fault
    fields), plus each tenant's background-history length — but *not* the
    tenant mix or the pool's lease table: those only change through
    :meth:`RackCoSimulator.admit` / :meth:`RackCoSimulator.withdraw`, which
    invalidate the checkpoint.  Produced by :meth:`RackCoSimulator.checkpoint`,
    consumed by :meth:`RackCoSimulator.rollover`.
    """

    run_state: _RunState
    #: (name, progress record) per tenant.
    progress: tuple[tuple[str, _Progress], ...]
    #: (name, background-timeline length) per tenant, for rollback trimming.
    histories: tuple[tuple[str, int], ...]
    #: Fault-layer mutation count at snapshot time.  Applying a fault (or
    #: re-requesting a revoked lease) mutates pool/lease state a checkpoint
    #: does not capture, so :meth:`RackCoSimulator.rollover` refuses a
    #: checkpoint whose count no longer matches — rollback is bit-identical
    #: only while faults are merely *pending*.
    fault_epoch: int = 0

    @property
    def clock(self) -> float:
        """Simulated time the checkpoint was taken at, seconds."""
        return self.run_state.clock


class RackCoSimulator:
    """Epoch-driven co-simulation of tenants sharing one rack's memory pool.

    Parameters
    ----------
    tenants:
        The tenants to co-schedule (unique names required).
    pool:
        The shared memory pool; None builds one big enough for all tenants.
    topology:
        The fabric wiring; None builds a single-port fabric with one node per
        tenant (tenant ``i`` runs on node ``i``).
    testbed:
        Platform description used for per-node engines and default fabric.
    epoch_seconds:
        Co-simulation step; None picks ~1/40 of the longest baseline runtime.
    seed:
        Seed for the per-tenant execution engines.
    """

    #: Hard bound on epochs so mis-configured runs terminate with a clear error.
    MAX_EPOCHS = 200_000

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        pool: Optional[MemoryPool] = None,
        topology: Optional[FabricTopology] = None,
        testbed: TestbedConfig = SKYLAKE_EMULATION,
        epoch_seconds: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        if not tenants:
            raise FabricError("the rack needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise FabricError("tenant names must be unique")
        if pool is None:
            pool = MemoryPool(capacity_bytes=sum(max(t.lease_bytes, 1) for t in tenants))
        self._setup(
            tuple(tenants), len(tenants), pool, topology, testbed, epoch_seconds, seed
        )

    @classmethod
    def incremental(
        cls,
        n_nodes: int,
        pool: Optional[MemoryPool] = None,
        topology: Optional[FabricTopology] = None,
        testbed: TestbedConfig = SKYLAKE_EMULATION,
        epoch_seconds: Optional[float] = None,
        seed: int = 0,
    ) -> "RackCoSimulator":
        """An empty co-simulator an external scheduler drives tenant by tenant.

        Unlike the batch constructor there is no up-front tenant list: the
        caller :meth:`admit`\\ s tenants as its jobs start, :meth:`step`\\ s the
        rack between its own events and :meth:`withdraw`\\ s tenants it
        retires.  ``pool`` defaults to an effectively unbounded pool (the
        caller is assumed to do its own capacity admission);
        ``epoch_seconds`` defaults to ~1/40 of the first admitted tenant's
        baseline runtime.
        """
        if pool is None:
            pool = MemoryPool(capacity_bytes=1 << 62)
        sim = cls.__new__(cls)
        sim._setup((), n_nodes, pool, topology, testbed, epoch_seconds, seed)
        return sim

    def _setup(
        self,
        tenants: tuple[TenantSpec, ...],
        n_nodes: int,
        pool: MemoryPool,
        topology: Optional[FabricTopology],
        testbed: TestbedConfig,
        epoch_seconds: Optional[float],
        seed: int,
    ) -> None:
        """The one construction path: configuration, then empty run state."""
        if n_nodes <= 0:
            raise FabricError("the rack needs at least one node")
        if topology is None:
            topology = FabricTopology(n_nodes=n_nodes, n_ports=1, testbed=testbed)
        if topology.n_nodes < n_nodes:
            raise FabricError(
                f"fabric has {topology.n_nodes} nodes but {n_nodes} are needed"
            )
        if epoch_seconds is not None and epoch_seconds <= 0:
            raise FabricError("epoch_seconds must be positive")
        # Configuration: fixed after construction.
        self.tenants = tenants
        self.topology = topology
        self.pool = pool
        self.testbed = testbed
        self.seed = int(seed)
        # Run state: what checkpoint() copies and rollover() restores, plus
        # the tenant table and the timelines a rollover trims.
        self._run_state = _RunState(epoch=epoch_seconds)
        self._states: dict[str, _TenantState] = {}
        self._telemetry = RackTelemetry()
        #: Incremental stepping: skip the contention re-solve at epoch
        #: rollovers whose demand vector is unchanged.  Observable behaviour
        #: is identical either way (the skipped solve would reproduce the
        #: frozen backgrounds); set to False to force a fresh solve every
        #: epoch, e.g. in differential tests.
        self.skip_unchanged_epochs: bool = True
        # Fault layer.  `_faults_active` is the single hot-path guard: while
        # False (no schedule injected, no elastic reclaim ever observed) the
        # step loop pays one attribute check per chunk and nothing else.
        self._faults_active = False
        self._fault_schedule: Optional[FaultSchedule] = None
        self._fault_events: tuple[FaultEvent, ...] = ()
        self._fault_cursor = 0
        self._faults_applied = 0
        self._fault_mutations = 0
        #: Residual capacity per degraded port (killed = 0.0); absent = healthy.
        self._port_scales: dict[int, float] = {}
        self._drain_bytes_per_s = DEFAULT_DRAIN_BYTES_PER_S

    # -- baseline profiling ---------------------------------------------------------

    def _profile_tenant(self, state: _TenantState, cache: dict) -> None:
        """Run the tenant once, interference-free, to get its reference phases.

        Tenants sharing the same workload object and local fraction are
        behaviourally identical, so their (expensive) baseline engine run is
        computed once and shared — the common many-identical-tenants sweep
        profiles O(unique specs) instead of O(tenants).  Entries hold the
        workload they were profiled from and are reused only for that very
        object: the key carries ``id(workload)``, and a later workload may be
        allocated at the address of one that has since been freed.
        """
        spec = state.spec
        # Contention during the co-simulation is resolved on the tenant's pool
        # port, which may be provisioned differently from the node's own link.
        # All ports are built identically, so the cached profile is port-safe.
        port_link = self.topology.link_of(state.node)
        state.perf = PerformanceModel(self.testbed, port_link)
        key = (id(spec.workload), spec.local_fraction)
        entry = cache.get(key)
        if entry is None or entry[0] is not spec.workload:
            metrics().counter("fabric.profile.runs").inc()
            with trace_span("fabric.profile", workload=spec.workload.name):
                platform = Platform.pooled(
                    spec.workload.footprint_bytes, spec.local_fraction, testbed=self.testbed
                )
                result = ExecutionEngine(platform, seed=self.seed).run(spec.workload)
            profiles = []
            for phase_spec, phase in zip(spec.workload.phases, result.phases):
                profile = _PhaseProfile(
                    runtime=phase.runtime,
                    flops=phase.flops,
                    local_bytes=phase.local_bytes,
                    remote_bytes=phase.remote_bytes,
                    coverage=phase.prefetch_coverage,
                    mlp=phase_spec.mlp,
                    unit_time_idle=1.0,
                )
                profiles.append(
                    replace(
                        profile, unit_time_idle=self._unit_time(state, profile, 0.0)
                    )
                )
            entry = cache[key] = (spec.workload, platform, tuple(profiles))
        else:
            metrics().counter("fabric.profile.cache_hits").inc()
        _, state.platform, state.phases = entry
        state.unit_time_memo = None
        state.baseline_runtime = float(sum(p.runtime for p in state.phases))

    def _unit_time(
        self, state: _TenantState, profile: _PhaseProfile, background: float
    ) -> float:
        """Wall time for one baseline-second of a phase under ``background``.

        The rate model is a pure function of the tenant's port link, the
        phase and the background: links never change, port degrades reach a
        tenant only through its background, and kills and revocations are
        explicit 0.0 rates that never get here.  So each tenant keeps its
        last answer in a one-slot memo keyed on the profile object and the
        background, and pays one solve per phase or background change
        instead of one per rate query.
        """
        memo = state.unit_time_memo
        if memo is not None and memo[0] is profile and memo[1] == background:
            return memo[2]
        runtime = max(profile.runtime, 1e-12)
        inputs = PhaseInputs(
            flops=profile.flops / runtime,
            local_demand_bytes=profile.local_bytes / runtime,
            remote_demand_bytes=profile.remote_bytes / runtime,
            prefetch_coverage=profile.coverage,
            mlp=profile.mlp,
            background_bandwidth=background,
        )
        unit_time = max(state.perf.phase_time(inputs).runtime, 1e-12)
        state.unit_time_memo = (profile, background, unit_time)
        return unit_time

    def _progress_rate(self, state: _TenantState, profile: _PhaseProfile, background: float) -> float:
        """Baseline-seconds of phase progress per wall-clock second.

        Normalised against the same model at zero background, so slowdowns are
        exactly 1 on an idle fabric regardless of model details.
        """
        return profile.unit_time_idle / self._unit_time(state, profile, background)

    # -- closed-loop driver -----------------------------------------------------------

    def run(self) -> RackCoSimResult:
        """Co-simulate all tenants to completion (or rejection).

        Drives the incremental API: tenant ``i`` is admitted on node ``i`` at
        its arrival time, each step goes at most one :meth:`horizon` and
        stops at the next arrival or fault, and a finished tenant returns its
        lease at its finish time, admitting queued tenants.  Arrivals, lease
        releases and faults therefore land at their exact times.
        """
        with trace_span("fabric.run", tenants=len(self.tenants)):
            if self._states:
                raise FabricError("run() cannot follow incremental admissions")
            run_state = self._run_state
            if run_state.epoch is None:
                # ~1/40 of the longest baseline runtime across all tenants
                # (profiles are cached, so the admissions below reuse them).
                longest = 0.0
                for spec in self.tenants:
                    probe = _TenantState(spec, node=0)
                    self._profile_tenant(probe, run_state.profiles)
                    longest = max(longest, probe.baseline_runtime)
                run_state.epoch = max(longest / 40.0, 1e-6)
            pending = sorted(
                range(len(self.tenants)), key=lambda i: self.tenants[i].arrival
            )
            max_leased = 0
            for _ in range(self.MAX_EPOCHS):
                if self._faults_active:
                    self._apply_due_faults()
                while (
                    pending
                    and self.tenants[pending[0]].arrival <= run_state.clock + 1e-12
                ):
                    idx = pending.pop(0)
                    # Stepping to an arrival may land a rounding error short
                    # of it; the tenant still starts no earlier than it arrives.
                    run_state.clock = max(run_state.clock, self.tenants[idx].arrival)
                    self.admit(self.tenants[idx], node=idx)
                max_leased = max(max_leased, self.pool.leased_bytes)
                states = list(self._states.values())
                freed = [
                    s for s in states if s.finished and s.lease.state == LEASE_GRANTED
                ]
                for state in freed:
                    self.pool.release(state.lease, time=run_state.clock)
                if freed:
                    self._rollover_epoch(force=True)
                if not pending and all(s.finished for s in states):
                    break
                targets = [self.tenants[pending[0]].arrival] if pending else []
                nxt = self._next_fault_time()
                if nxt is not None and any(s.running for s in states):
                    # Only a running (possibly stalled) tenant can be changed
                    # by a fault; with nobody running a fault admits no one.
                    targets.append(nxt)
                future = [t for t in targets if t > run_state.clock + 1e-12]
                if any(r > 0 for r in self.progress_rates().values()) or any(
                    s.running and s.progress.migration_debt > 0.0 for s in states
                ):
                    dt = self.horizon()
                    self.step(min([dt] + [t - run_state.clock for t in future]))
                elif future:
                    # Nothing progresses right now; jump to the next arrival
                    # or fault, whichever changes the world first.
                    self.step(min(future) - run_state.clock)
                else:
                    # Nothing moves, nothing arrives, no fault can help: whoever
                    # is still queued can never be admitted.
                    for state in states:
                        if state.lease.state == LEASE_QUEUED:
                            self.pool.release(state.lease, time=run_state.clock)
                            state.lease.state = LEASE_REJECTED
                    break
            else:
                raise FabricError(
                    f"co-simulation did not terminate within {self.MAX_EPOCHS} epochs"
                )
        return self._result(max_leased)

    def _result(self, max_leased: int) -> RackCoSimResult:
        """Package the finished closed-loop run (tenants in spec order)."""
        ordered = [self._states[spec.name] for spec in self.tenants]
        interference = {
            s.spec.name: DynamicInterference(
                s.background_times,
                s.background_bandwidths,
                link=self.topology.link_of(s.node),
            )
            for s in ordered
            if s.background_times
        }
        outcomes = tuple(
            TenantOutcome(
                name=s.spec.name,
                workload=s.spec.workload.name,
                node=s.node,
                arrival=s.spec.arrival,
                start_time=s.start_time,
                finish_time=s.finish_time,
                baseline_runtime=s.baseline_runtime,
                lease_bytes=s.spec.lease_bytes,
                lease_state=s.lease.state,
                mean_background_bandwidth=(
                    float(np.mean(s.background_bandwidths))
                    if s.background_bandwidths
                    else 0.0
                ),
            )
            for s in ordered
        )
        armed = bool(self._fault_events) or self.pool.elastic
        return RackCoSimResult(
            tenants=outcomes,
            telemetry=self._telemetry,
            makespan=max((s.finish_time for s in ordered if s.finished), default=0.0),
            pool_capacity_bytes=self.pool.capacity_bytes,
            max_leased_bytes=max_leased,
            epoch_seconds=self._run_state.epoch,
            _interference=interference,
            blast_radius=self.blast_radius() if armed else None,
        )

    def _advance(
        self, state: _TenantState, background: float, dt: float
    ) -> tuple[float, Optional[float]]:
        """Advance a tenant by ``dt`` wall-seconds under ``background``.

        Returns the baseline seconds completed and, if the tenant finished
        inside ``dt``, the wall time that took (else None).  Phase boundaries
        inside ``dt`` are honoured: the next phase runs at its own rate (the
        background map, however, is only refreshed at epoch granularity).
        """
        record = state.progress
        phases = state.phases
        used = progress = 0.0
        while used < dt and record.phase_index < len(phases):
            profile = phases[record.phase_index]
            rate = self._progress_rate(state, profile, background)
            baseline_remaining = profile.runtime - record.phase_elapsed
            wall_needed = baseline_remaining / rate
            if wall_needed <= (dt - used) + 1e-12:
                used += wall_needed
                progress += baseline_remaining
                record.phase_index += 1
                record.phase_elapsed = 0.0
            else:
                advanced = (dt - used) * rate
                record.phase_elapsed += advanced
                progress += advanced
                used = dt
        return progress, (used if record.phase_index >= len(phases) else None)

    # -- incremental (scheduler-driven) API -------------------------------------------
    #
    # The methods below let an external event loop — the cluster scheduler in
    # :mod:`repro.scheduler.progress` — drive one rack's co-simulation between
    # its own events instead of running it to completion.  See the module
    # docstring ("Coupling contract") for units and epoch semantics.

    @property
    def clock(self) -> float:
        """Simulated time of the incrementally-driven co-simulation, seconds."""
        return self._run_state.clock

    @property
    def telemetry(self) -> RackTelemetry:
        """Epoch-rollover telemetry of the incrementally-driven co-simulation."""
        return self._telemetry

    @property
    def tenant_states(self) -> dict:
        """Live per-tenant state, keyed by tenant name (read-only use)."""
        return dict(self._states)

    def admit(
        self, spec: TenantSpec, node: Optional[int] = None, time: Optional[float] = None
    ) -> "Lease":
        """Admit one tenant into the running co-simulation.

        Profiles the tenant interference-free (cached per workload/fraction),
        requests its pool lease and rolls the epoch over so the new tenant's
        demand is part of the resolved backgrounds immediately.  ``node`` is
        the rack-local node index (first free node when omitted); ``time``
        steps the rack forward to it, and a ``time`` in the past raises.
        Returns the tenant's lease so the caller can see whether it was
        granted or queued.
        """
        if spec.name in self._states:
            raise FabricError(f"tenant {spec.name!r} is already admitted")
        occupied = {s.node for s in self._states.values()}
        if node is None:
            free = [n for n in range(self.topology.n_nodes) if n not in occupied]
            if not free:
                raise FabricError("no free node in the rack fabric")
            node = free[0]
        elif not 0 <= node < self.topology.n_nodes:
            raise FabricError(
                f"node {node} is not part of this {self.topology.n_nodes}-node fabric"
            )
        elif node in occupied:
            raise FabricError(f"node {node} already hosts a tenant")
        _step_to(self, time, "admit")
        metrics().counter("fabric.cosim.admitted").inc()
        run_state = self._run_state
        state = _TenantState(spec, node=node)
        self._profile_tenant(state, run_state.profiles)
        if run_state.epoch is None:
            run_state.epoch = max(state.baseline_runtime / 40.0, 1e-6)
        state.lease = self.pool.request(spec.name, spec.lease_bytes, time=run_state.clock)
        self._states[spec.name] = state
        if self.pool.elastic:
            # An overcommitting pool may have shrunk co-tenants to fit the
            # newcomer; charge those reclaims before re-resolving the epoch.
            self._consume_pool_reclaims()
        self._rollover_epoch(force=True)
        return state.lease

    def withdraw(self, name: str, time: Optional[float] = None) -> None:
        """Remove a tenant (finished or cancelled) and return its lease.

        Releasing the lease admits queued co-tenants in FIFO order; the epoch
        is rolled over so the departed tenant's demand stops interfering in
        the same instant.  ``time`` steps the rack forward to it first; a
        ``time`` in the past raises.
        """
        if name not in self._states:
            raise FabricError(f"no admitted tenant named {name!r}")
        _step_to(self, time, "withdraw")
        metrics().counter("fabric.cosim.withdrawn").inc()
        state = self._states.pop(name)
        if state.lease is not None and state.lease.state in (LEASE_GRANTED, LEASE_QUEUED):
            self.pool.release(state.lease, time=self._run_state.clock)
        self._rollover_epoch(force=True)

    def set_background_offset(self, node: int, bandwidth: float) -> None:
        """Impose extra background bandwidth on ``node`` from outside the rack.

        The offset models traffic the intra-rack solve cannot see — a cluster
        fabric's spine traffic landing on the node's pool path — and is simply
        added to whatever intra-rack background the node's co-runners
        generate.  It takes effect immediately (the current epoch's frozen
        background is adjusted in place, and the tenant's background history
        gets a point at the current clock) and persists across rollovers
        until replaced; pass 0 to clear.  Offsets are part of the dirty-epoch
        signature, so changing them always triggers a re-solve path update.
        """
        if not 0 <= node < self.topology.n_nodes:
            raise FabricError(
                f"node {node} is not part of this {self.topology.n_nodes}-node fabric"
            )
        if bandwidth < 0:
            raise FabricError("background offset must be >= 0")
        run_state = self._run_state
        old = run_state.offsets.get(node, 0.0)
        if bandwidth > 0:
            run_state.offsets[node] = float(bandwidth)
        else:
            run_state.offsets.pop(node, None)
        delta = float(bandwidth) - old
        if delta == 0.0:
            return
        if node in run_state.backgrounds:
            run_state.backgrounds[node] += delta
            for state in self._states.values():
                if state.node == node and state.running:
                    state.record_background(run_state.clock, run_state.backgrounds[node])

    def background_offset(self, node: int) -> float:
        """The external background offset currently imposed on ``node``."""
        return self._run_state.offsets.get(node, 0.0)

    def baseline_runtime_of(self, name: str) -> float:
        """Interference-free total runtime of an admitted tenant, seconds."""
        return self._state_of(name).baseline_runtime

    def peak_offered_bandwidth(self, spec: TenantSpec) -> float:
        """Pool bandwidth of a tenant's hungriest phase, bytes/s.

        Profiles the workload on demand (cached), without admitting it — used
        by placement policies to project what a prospective tenant would add
        to a pool port.
        """
        probe = _TenantState(spec, node=0)
        self._profile_tenant(probe, self._run_state.profiles)
        return max((p.offered_bandwidth for p in probe.phases), default=0.0)

    def current_demands(self) -> dict[int, float]:
        """Offered pool bandwidth per node of the currently running tenants."""
        return {
            s.node: s.current_offered_bandwidth()
            for s in self._states.values()
            if s.running
        }

    def progress_rates(self) -> dict[str, float]:
        """Baseline-seconds of progress per wall-second, per running tenant.

        Rates are exact under the current epoch's frozen backgrounds and the
        tenants' current phases; they stay valid for at most
        :meth:`horizon` seconds.  Fault-stalled tenants — revoked lease,
        killed port, or a migration drain in progress — report an **explicit
        0.0** rather than being omitted, so coupled schedulers observe the
        stall instead of falling back to a static estimate.
        """
        backgrounds = self._run_state.backgrounds
        rates: dict[str, float] = {}
        for name, state in self._states.items():
            record = state.progress
            if self._faults_active and (
                # Revoked (or re-queued after revocation), draining or on a
                # killed port: stalled.
                state.awaiting_regrant
                or (
                    state.running
                    and (record.migration_debt > 0.0 or self._port_killed(state.node))
                )
            ):
                rates[name] = 0.0
                continue
            if not state.running or record.phase_index >= len(state.phases):
                continue
            profile = state.phases[record.phase_index]
            rates[name] = self._progress_rate(
                state, profile, backgrounds.get(state.node, 0.0)
            )
        return rates

    def horizon(self) -> float:
        """Wall seconds the current :meth:`progress_rates` stay exact.

        Bounded by the next epoch rollover and by the nearest phase boundary
        of any running tenant (a new phase runs at a different rate).
        """
        run_state = self._run_state
        if run_state.epoch is None:
            raise FabricError(
                "the co-simulation has no epoch length yet: pass epoch_seconds "
                "or admit a tenant first"
            )
        bound = max(run_state.epoch - run_state.epoch_elapsed, 1e-12)
        if self._faults_active:
            nxt = self._next_fault_time()
            if nxt is not None:
                bound = min(bound, max(nxt - run_state.clock, 1e-12))
            for state in self._states.values():
                if state.running and state.progress.migration_debt > 0.0:
                    # The rate flips from 0 back up once the drain finishes.
                    bound = min(bound, max(state.progress.migration_debt, 1e-12))
        for name, rate in self.progress_rates().items():
            state = self._states[name]
            record = state.progress
            if record.phase_index >= len(state.phases):
                continue
            profile = state.phases[record.phase_index]
            remaining = max(profile.runtime - record.phase_elapsed, 0.0)
            if rate > 0:
                bound = min(bound, remaining / rate)
        return max(bound, 1e-12)

    def step(self, dt: float) -> dict[str, float]:
        """Advance the co-simulation ``dt`` wall-seconds.

        The rack's sub-epoch loop: :meth:`step_frozen` up to each epoch
        boundary, then a rollover that re-resolves the backgrounds, so
        arbitrarily large ``dt`` values are legal — but only steps of at most
        :meth:`horizon` keep rates piecewise constant for the caller's own
        bookkeeping.  Tenants finishing inside the step get their
        ``finish_time`` set and stop demanding bandwidth; their leases stay
        held until :meth:`withdraw`.  Returns the baseline seconds each tenant
        completed during the step.
        """
        done = {name: 0.0 for name in self._states}
        self._step_epochs(dt, done)
        return done

    def _step_epochs(
        self, dt: float, done: dict[str, float], rollover: bool = True
    ) -> None:
        """The one sub-epoch loop behind :meth:`step` and the cluster's.

        Adds each tenant's baseline seconds to ``done``.  With ``rollover``
        off, an epoch that ends exactly at ``dt`` is left due: a
        :class:`~repro.fabric.cluster.ClusterCoSimulator` rolls all due racks
        over itself at its epoch boundary so their re-solves batch into one
        call.  A rack whose epoch phase drifted from the cluster's (an
        admission, withdrawal or fault restarted it) still rolls itself over
        inside ``dt``.
        """
        if dt < 0:
            raise FabricError("cannot step the co-simulation backwards")
        run_state = self._run_state
        if run_state.epoch is None:
            # Nothing admitted yet: time passes, no work happens.
            self.step_frozen(dt)
            return
        remaining = float(dt)
        while remaining > 1e-15:
            chunk = min(remaining, max(run_state.epoch - run_state.epoch_elapsed, 0.0))
            if chunk <= 0:
                self._rollover_epoch()
                continue
            for name, amount in self.step_frozen(chunk).items():
                done[name] = done.get(name, 0.0) + amount
            remaining -= chunk
            if (rollover or remaining > 1e-15) and self.epoch_due():
                self._rollover_epoch()

    def step_frozen(self, dt: float) -> dict[str, float]:
        """Advance ``dt`` wall-seconds under the current frozen backgrounds.

        The one intra-epoch kernel, inside the sub-epoch loop of :meth:`step`
        and of the cluster.  ``dt`` must not cross this rack's epoch boundary.
        Scheduled faults fire at their exact times inside ``dt``: the kernel
        sub-chunks there, and each applied fault rolls the epoch over.  A
        tenant on a killed port, owing migration debt or waiting for a
        revoked lease stalls.
        """
        if dt < 0:
            raise FabricError("cannot step the co-simulation backwards")
        run_state = self._run_state
        if (
            run_state.epoch is not None
            and dt > max(run_state.epoch - run_state.epoch_elapsed, 0.0) + 1e-12
        ):
            raise FabricError(
                "step_frozen cannot cross an epoch boundary; roll the epoch "
                "over first"
            )
        registry = metrics()
        registry.counter("fabric.cosim.step_calls").inc()
        registry.counter("fabric.cosim.stepped_seconds").inc(dt)
        states = self._states
        done = {name: 0.0 for name in states}
        remaining = float(dt)
        while remaining > 1e-15:
            chunk = remaining
            faulted = self._faults_active
            if faulted:
                self._apply_due_faults()
                nxt = self._next_fault_time()
                if nxt is not None:
                    chunk = min(chunk, max(nxt - run_state.clock, 0.0))
            # An applied fault re-resolves, so read the backgrounds per chunk.
            backgrounds = run_state.backgrounds
            for state in [s for s in states.values() if s.running]:
                avail = self._fault_chunk_available(state, chunk) if faulted else chunk
                if avail <= 0.0:
                    continue
                progress, used = self._advance(
                    state, backgrounds.get(state.node, 0.0), avail
                )
                done[state.spec.name] += progress
                if used is not None and state.progress.finish_time is None:
                    state.progress.finish_time = run_state.clock + (chunk - avail) + used
            if faulted:
                for state in states.values():
                    # Between revocation and re-grant (the lease is REVOKED
                    # or back in the queue) the tenant makes no progress.
                    if state.awaiting_regrant:
                        self._record_stall(state, chunk)
            run_state.clock += chunk
            if run_state.epoch is not None:
                run_state.epoch_elapsed += chunk
            remaining -= chunk
        return done

    def epoch_due(self) -> bool:
        """Whether the current epoch has fully elapsed (a rollover is due)."""
        run_state = self._run_state
        return (
            run_state.epoch is not None
            and run_state.epoch_elapsed >= run_state.epoch - 1e-12
        )

    def checkpoint(self) -> EpochCheckpoint:
        """Snapshot the run state and every tenant's progress for :meth:`rollover`."""
        metrics().counter("fabric.cosim.checkpoints").inc()
        ordered = sorted(self._states.items())
        return EpochCheckpoint(
            run_state=self._run_state.copy(),
            progress=tuple((name, replace(s.progress)) for name, s in ordered),
            histories=tuple((name, len(s.background_times)) for name, s in ordered),
            fault_epoch=self._fault_mutations,
        )

    def rollover(self, checkpoint: EpochCheckpoint) -> None:
        """Roll the co-simulation back to a previously captured checkpoint.

        Restores copies of the run state and of every tenant's progress
        record (so one checkpoint can be rolled back to repeatedly), and
        trims background / telemetry timelines recorded after the
        checkpoint.  Only legal while the tenant mix is unchanged —
        :meth:`admit` and :meth:`withdraw` mutate the pool's lease table,
        which a checkpoint deliberately does not capture.
        """
        if {name for name, _ in checkpoint.progress} != set(self._states):
            raise FabricError(
                "checkpoint does not match the current tenant mix; checkpoints "
                "are invalidated by admit() and withdraw()"
            )
        if checkpoint.fault_epoch != self._fault_mutations:
            raise FabricError(
                "checkpoint predates applied fault events; fault application "
                "mutates pool and lease state that checkpoints do not capture, "
                "so rollback is only legal while faults are merely pending"
            )
        # A checkpoint taken before the first admission must not unset the
        # epoch length a later admission derived.
        self._run_state = checkpoint.run_state.copy(epoch=self._run_state.epoch)
        for name, record in checkpoint.progress:
            self._states[name].progress = replace(record)
        for name, length in checkpoint.histories:
            state = self._states[name]
            del state.background_times[length:]
            del state.background_bandwidths[length:]
        self._telemetry.trim_after(checkpoint.clock)
        metrics().counter("fabric.cosim.rollbacks").inc()

    # -- fault injection / elastic leasing --------------------------------------------
    #
    # The failure model these methods implement is documented in
    # ``docs/failure_model.md``.  Everything is inert until a schedule is
    # injected (or the pool reclaims an elastic lease): the step loop then
    # pays exactly one boolean check per chunk.

    def inject_faults(
        self,
        schedule: FaultSchedule,
        rack: int = 0,
        drain_bytes_per_s: Optional[float] = None,
    ) -> None:
        """Arm a fault schedule against this rack.

        ``rack`` selects which of the schedule's events apply (a rack
        simulator inside a cluster passes its own index; standalone racks use
        the default 0).  ``drain_bytes_per_s`` is the modeled page give-back
        rate: when a lease is shrunk or revoked, the reclaimed bytes drain
        back at this rate and the drain time is charged against the tenant's
        progress as a stall (migration debt).  Faults fire at exact simulated
        times inside :meth:`step_frozen` (the kernel sub-chunks there), and
        each applied fault forces an epoch rollover so the contention solve
        reflects the damage immediately.  Injection is one-shot per
        simulator; an *empty* schedule leaves the fault layer disarmed and
        every output bit-identical to a fault-free run.
        """
        if self._fault_schedule is not None:
            raise FabricError("a fault schedule is already injected")
        if not isinstance(schedule, FaultSchedule):
            raise FabricError("inject_faults() needs a FaultSchedule")
        if drain_bytes_per_s is not None:
            if drain_bytes_per_s <= 0:
                raise FabricError("drain_bytes_per_s must be positive")
            self._drain_bytes_per_s = float(drain_bytes_per_s)
        self._fault_schedule = schedule
        self._fault_events = schedule.events_for_rack(rack)
        self._fault_cursor = 0
        if self._fault_events:
            self._faults_active = True

    def faults_pending(self) -> bool:
        """True while injected fault events are still waiting to fire."""
        return self._fault_cursor < len(self._fault_events)

    def _next_fault_time(self) -> Optional[float]:
        if self._fault_cursor < len(self._fault_events):
            return self._fault_events[self._fault_cursor].time
        return None

    def port_health(self, port: int) -> float:
        """Residual capacity fraction of a pool port: 1.0 healthy, 0.0 killed."""
        return self._port_scales.get(port, 1.0)

    def _port_killed(self, node: int) -> bool:
        """Whether ``node``'s pool port is dead (cheap while all are healthy)."""
        return bool(self._port_scales) and (
            self._port_scales.get(self.topology.port_of(node), 1.0) <= 0.0
        )

    def _apply_due_faults(self) -> None:
        """Apply every scheduled event whose simulated time has been reached."""
        while True:
            nxt = self._next_fault_time()
            if nxt is None or nxt > self._run_state.clock + 1e-12:
                return
            event = self._fault_events[self._fault_cursor]
            self._fault_cursor += 1
            self.apply_fault(event)

    def apply_fault(self, event: FaultEvent) -> None:
        """Apply one fault event at the current clock (scheduled events land
        here too, so ad-hoc chaos drivers share the exact same semantics).

        Port events retune :meth:`port_health`; lease events act on the named
        tenant's granted pool lease (an unknown, finished or not-yet-granted
        tenant is a documented no-op — the fault outlived its target);
        capacity loss shrinks the pool, reclaiming elastic leases first and
        revoking the youngest granted leases as a last resort.  Every applied
        fault bumps the mutation counter — invalidating earlier checkpoints,
        see :class:`EpochCheckpoint` — and forces an epoch rollover, so the
        solver key is dirtied and the next solve sees the new world.
        """
        self._faults_active = True
        self._fault_mutations += 1
        self._faults_applied += 1
        metrics().counter("fabric.faults.injected").inc()
        kind = event.kind
        if kind in (FAULT_PORT_KILL, FAULT_PORT_DEGRADE, FAULT_PORT_RESTORE):
            if not 0 <= event.port < self.topology.n_ports:
                raise FabricError(
                    f"fault targets port {event.port} but the fabric has "
                    f"{self.topology.n_ports} ports"
                )
            if kind == FAULT_PORT_KILL:
                self._port_scales[event.port] = 0.0
            elif kind == FAULT_PORT_DEGRADE:
                self._port_scales[event.port] = float(event.scale)
            else:
                self._port_scales.pop(event.port, None)
        elif kind in (FAULT_LEASE_REVOKE, FAULT_LEASE_SHRINK):
            state = self._states.get(event.tenant)
            if state is not None and state.running:
                if kind == FAULT_LEASE_REVOKE:
                    self.pool.revoke(state.lease, time=self._run_state.clock)
                else:
                    self.pool.shrink(
                        state.lease, int(event.nbytes), time=self._run_state.clock
                    )
        elif kind == FAULT_POOL_CAPACITY_LOSS:
            self.pool.lose_capacity(int(event.nbytes), time=self._run_state.clock)
        self._consume_pool_reclaims()
        self._rollover_epoch(force=True)

    def _consume_pool_reclaims(self) -> None:
        """Charge pool-side reclaims (shrink / revoke) to their tenants.

        Each reclaimed byte drains back to the pool at the modeled migration
        rate; the drain time lands on the tenant as migration debt, paid as a
        stall before any further progress.  The pool's reclaim log is
        consumed destructively, so every reclaim is charged exactly once.
        """
        records = self.pool.consume_reclaims()
        if not records:
            return
        self._faults_active = True
        registry = metrics()
        for record in records:
            state = self._states.get(record.tenant)
            if state is None:
                continue
            progress = state.progress
            progress.migration_debt += record.nbytes / self._drain_bytes_per_s
            progress.migrated_bytes += record.nbytes
            registry.counter("fabric.faults.migrated_bytes").inc(record.nbytes)
            if record.kind == "revoke":
                if (
                    progress.first_granted_at is None
                    and state.lease is not None
                    and state.lease.granted_at is not None
                ):
                    progress.first_granted_at = state.lease.granted_at
                progress.revoked_at = record.time
                progress.readmit_latency = None
                progress.revocations += 1
                registry.counter("fabric.faults.revocations").inc()

    def _retry_revoked(self) -> None:
        """Re-request the lease of every revoked tenant (back of the queue).

        Runs at each epoch rollover while the fault layer is active: a
        revoked tenant rejoins the pool's FIFO admission queue and resumes
        once capacity allows.  The time from revocation to re-grant is its
        re-admission latency; on an uncontended pool that is 0 and the whole
        blast radius is the migration drain.
        """
        changed = False
        for name, state in self._states.items():
            if (
                state.lease is not None
                and state.lease.state == LEASE_REVOKED
                and not state.finished
            ):
                state.lease = self.pool.request(
                    name, state.spec.lease_bytes, time=self._run_state.clock
                )
                self._fault_mutations += 1
                changed = True
        if changed:
            self._consume_pool_reclaims()
        for state in self._states.values():
            progress = state.progress
            if (
                progress.revoked_at is not None
                and progress.readmit_latency is None
                and state.lease is not None
                and state.lease.state == LEASE_GRANTED
                and state.lease.granted_at is not None
                and state.lease.granted_at >= progress.revoked_at
            ):
                progress.readmit_latency = state.lease.granted_at - progress.revoked_at
                metrics().counter("fabric.faults.readmissions").inc()

    def _record_stall(self, state: _TenantState, seconds: float) -> None:
        if seconds <= 0:
            return
        state.progress.stall_seconds += seconds
        metrics().counter("fabric.faults.stall_seconds").inc(seconds)

    def _fault_chunk_available(self, state: _TenantState, chunk: float) -> float:
        """Wall time of ``chunk`` a running tenant can spend on real progress.

        A tenant on a killed port is fully stalled; a tenant owing migration
        debt pays it down first (stalled while its pages drain) and runs with
        whatever remains of the chunk.
        """
        if self._port_killed(state.node):
            self._record_stall(state, chunk)
            return 0.0
        progress = state.progress
        if progress.migration_debt > 0.0:
            pay = min(progress.migration_debt, chunk)
            progress.migration_debt -= pay
            if progress.migration_debt < 1e-12:
                progress.migration_debt = 0.0
            self._record_stall(state, pay)
            return chunk - pay
        return chunk

    def _impact_of(self, state: _TenantState) -> TenantImpact:
        progress = state.progress
        return TenantImpact(
            name=state.spec.name,
            stall_seconds=progress.stall_seconds,
            revocations=progress.revocations,
            readmission_latency=progress.readmit_latency,
            migrated_bytes=progress.migrated_bytes,
            throughput_lost=progress.stall_seconds,
        )

    def blast_radius(self) -> BlastRadiusReport:
        """Damage assessment of the fault layer so far (deterministic)."""
        states = sorted(self._states.items())
        return BlastRadiusReport(
            faults_injected=self._faults_applied,
            revocations=sum(s.progress.revocations for _, s in states),
            tenants=tuple(self._impact_of(s) for _, s in states),
        )

    def _state_of(self, name: str) -> _TenantState:
        try:
            return self._states[name]
        except KeyError as exc:
            raise FabricError(f"no admitted tenant named {name!r}") from exc

    def _rollover_epoch(self, force: bool = False) -> None:
        """Close the current epoch: re-resolve backgrounds, restart the epoch.

        Called at every epoch boundary and on every tenant admission or
        withdrawal, so the frozen backgrounds always reflect the live tenant
        mix and their current phases.  A
        :class:`~repro.fabric.cluster.ClusterCoSimulator` runs the same three
        pieces for all its due racks at once: :meth:`_open_rollover`, one
        batched solve of the dirty racks, then :meth:`_apply_epoch_solve` and
        :meth:`_complete_rollover` per rack.
        """
        running, demands, solve_key = self._open_rollover(force)
        if solve_key is not None:
            delivered = self.topology.resolve(demands) if demands else {}
            self._apply_epoch_solve(running, delivered, solve_key)
        self._complete_rollover(running, demands)

    def _open_rollover(
        self, force: bool = False
    ) -> tuple[list[_TenantState], dict[int, float], Optional[tuple]]:
        """Start a rollover: the running tenants, their demand vector and the
        solve signature — ``None`` when the solve can be skipped.

        Revoked leases are retried first while the fault layer is armed.
        When :attr:`skip_unchanged_epochs` is on and neither the demand
        vector nor the external offsets changed since the last resolved
        epoch, the fixed-point solve is skipped — it would reproduce the
        backgrounds already frozen — while history and telemetry are still
        recorded exactly as on the resolve path, so trajectories are
        bit-identical with skipping on or off.  ``force`` (admission,
        withdrawal, fault) always re-solves: those events change pool or
        lease state the demand signature alone cannot see.
        """
        registry = metrics()
        registry.counter("fabric.cosim.epoch_rollovers").inc()
        if self._faults_active:
            self._retry_revoked()
        running = [s for s in self._states.values() if s.running]
        # Tenants on killed ports demand nothing (they are stalled), and port
        # health is part of the solve signature so restoring or degrading a
        # port can never be skipped as "unchanged".
        demands = {
            s.node: s.current_offered_bandwidth()
            for s in running
            if not self._port_killed(s.node)
        }
        solve_key: tuple = (
            tuple(sorted(demands.items())),
            tuple(sorted(self._run_state.offsets.items())),
            tuple(sorted(self._port_scales.items())),
        )
        if (
            not force
            and self.skip_unchanged_epochs
            and solve_key == self._run_state.solve_key
        ):
            registry.counter("fabric.cosim.epoch_skips").inc()
            return running, demands, None
        registry.counter("fabric.cosim.epoch_resolves").inc()
        return running, demands, solve_key

    def _apply_epoch_solve(
        self,
        running: list[_TenantState],
        delivered: Mapping[int, float],
        solve_key: tuple,
    ) -> None:
        """Freeze new epoch backgrounds from a resolved allocation."""
        run_state = self._run_state
        backgrounds = {
            s.node: self.topology.background_for(s.node, delivered)
            + run_state.offsets.get(s.node, 0.0)
            for s in running
        }
        if self._port_scales:
            # A degraded port's lost capacity behaves like permanent
            # background traffic occupying (1 - scale) of the port.
            for s in running:
                port = self.topology.port_of(s.node)
                scale = self._port_scales.get(port, 1.0)
                if scale < 1.0:
                    backgrounds[s.node] += (
                        1.0 - scale
                    ) * self.topology.ports[port].data_capacity
        run_state.backgrounds = backgrounds
        run_state.solve_key = solve_key

    def _complete_rollover(
        self, running: list[_TenantState], demands: Mapping[int, float]
    ) -> None:
        """Restart the epoch and record background history + telemetry."""
        run_state = self._run_state
        run_state.epoch_elapsed = 0.0
        clock = run_state.clock
        for state in running:
            state.record_background(clock, run_state.backgrounds[state.node])
        if running:
            telemetry = self._telemetry
            if telemetry.times and telemetry.times[-1] >= clock - 1e-12:
                telemetry.drop_last()
            ports = {self.topology.port_of(s.node) for s in running}
            telemetry.record(
                self.pool.sample(clock),
                utilization=max(
                    self.topology.port_utilization(p, demands) for p in ports
                ),
                waiting_seconds=max(
                    self.topology.port_waiting_time(p, demands) for p in ports
                ),
            )
