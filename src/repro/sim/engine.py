"""Execution engine: runs workload specifications on a platform.

The engine is the simulator's stand-in for "running the application on the
testbed".  It

1. lays the workload's memory objects out in a virtual address space in
   allocation order,
2. places their pages on the platform's memory tiers with the first-touch
   policy (or whatever explicit placement an object requests),
3. splits each phase's DRAM traffic over the tiers: every object's pages fall
   into a few contiguous same-tier *page runs*, its access pattern gives each
   run's share of the object's traffic, and the shares are summed per tier,
   so the cost follows the number of runs rather than the number of pages,
4. executes the phases: it derives the prefetcher's behaviour from the access
   patterns, asks the performance model for each phase's runtime under the
   configured interference, and
5. emits the counters the multi-level profiler consumes.

Dynamic (late) allocations and objects freed after initialisation are applied
between the first and second phase, which is what the BFS case study of
Section 7.1 manipulates.

Steps 1–3 (the *layout*) depend only on the workload, the seed, the platform
and the reserved local memory, never on prefetching or interference, and no
later step draws from the random generator.  An engine therefore keeps the
layout of its last run and evaluates it again when the next run asks for the
same workload object and reserved bytes — the level-3 sweep runs one layout
under seven interference settings.  Engines whose placement changes while the
phases run (:class:`~repro.runtime.MigratingExecutionEngine`) walk live memory
instead and never reuse a layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from ..cache import events
from ..cache.events import CounterSet
from ..cache.hierarchy import KernelCacheStats
from ..config.errors import ConfigurationError, WorkloadError
from ..memory.objects import AddressSpace, MemoryObject
from ..memory.tiered import TieredMemory
from ..telemetry import metrics, trace_span
from ..trace.access import PageAccessProfile
from ..workloads.base import PhaseSpec, WorkloadSpec
from .interference import InterferenceSource, NoInterference
from .perfmodel import PhaseInputs
from .platform import Platform
from .results import ObjectPlacementResult, PhaseResult, RunResult, TimeBreakdown


@dataclass(frozen=True)
class TierTraffic:
    """Per-tier demand traffic of one phase, bytes.

    The performance model distinguishes two paths: node-local memory and
    memory reached over the fabric link.  ``pooled`` records which tiers sit
    behind the link; on systems with three or more tiers this is what routes
    the *middle* tiers' bytes explicitly, so ``local + remote`` always covers
    the whole demand instead of silently dropping intermediate tiers.
    """

    per_tier: tuple[float, ...]
    #: Which tiers are fabric-attached (pooled).  When empty, defaults to
    #: "top tier is node-local, every other tier is behind the link".
    pooled: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        if self.pooled and len(self.pooled) != len(self.per_tier):
            raise ConfigurationError(
                f"pooled mask has {len(self.pooled)} entries for "
                f"{len(self.per_tier)} tiers"
            )

    def _pooled_mask(self) -> tuple[bool, ...]:
        if self.pooled:
            return self.pooled
        return tuple(i > 0 for i in range(len(self.per_tier)))

    @property
    def local(self) -> float:
        """Traffic served by node-local (non-pooled) tiers."""
        mask = self._pooled_mask()
        return float(sum(t for t, pooled in zip(self.per_tier, mask) if not pooled))

    @property
    def remote(self) -> float:
        """Traffic served by fabric-attached (pooled) tiers; 0 on single-tier systems."""
        mask = self._pooled_mask()
        return float(sum(t for t, pooled in zip(self.per_tier, mask) if pooled))

    @property
    def total(self) -> float:
        """All demand traffic."""
        return float(sum(self.per_tier))


def _sum_by_tier(tiers: np.ndarray, shares: np.ndarray, n_tiers: int) -> np.ndarray:
    """Sum of ``shares`` per tier index, pairwise like ``ndarray.sum``.

    ``np.bincount`` would add the runs one after another; an interleaved
    object has one run per page, and over 10^5 runs that sequential sum
    drifts by ~1e-12.  Sorting by tier lets ``np.add.reduceat`` sum each
    tier's contiguous block pairwise instead.
    """
    order = np.argsort(tiers, kind="stable")
    sorted_tiers = tiers[order]
    firsts = np.flatnonzero(np.diff(sorted_tiers, prepend=-1))
    sums = np.zeros(n_tiers, dtype=np.float64)
    sums[sorted_tiers[firsts]] = np.add.reduceat(shares[order], firsts)
    return sums


@dataclass(frozen=True)
class _Layout:
    """Everything a run needs that prefetching and interference cannot change."""

    spec: WorkloadSpec
    reserved_local_bytes: int
    platform: Platform
    seed: int
    #: Per phase, in order: the tier split of its traffic and its stream fraction.
    traffic: tuple[TierTraffic, ...]
    stream_fractions: tuple[float, ...]
    placements: tuple[ObjectPlacementResult, ...]
    remote_capacity_ratio: float


class ExecutionEngine:
    """Runs :class:`~repro.workloads.base.WorkloadSpec` objects on a :class:`Platform`."""

    def __init__(self, platform: Platform, seed: int = 0) -> None:
        self.platform = platform
        self.seed = int(seed)
        #: Layout of the last run (one slot); see the module docstring.
        self._layout_memo: Optional[_Layout] = None

    # -- public API --------------------------------------------------------------------

    def run(
        self,
        spec: WorkloadSpec,
        prefetch_enabled: Optional[bool] = None,
        interference: Optional[InterferenceSource] = None,
        reserved_local_bytes: int = 0,
    ) -> RunResult:
        """Execute ``spec`` and return the full :class:`RunResult`.

        Parameters
        ----------
        spec:
            The workload at a specific input problem.
        prefetch_enabled:
            Override the testbed's hardware-prefetching switch (None keeps the
            platform default) — the lever behind Figures 7 and 8.
        interference:
            Background traffic on the link to the memory pool (None = idle).
        reserved_local_bytes:
            Local memory occupied by other software (`setup_waste`), reducing
            what first-touch placement can use.
        """
        interference = interference if interference is not None else NoInterference()
        registry = metrics()
        registry.counter("engine.runs").inc()
        registry.counter("engine.phases").inc(len(spec.phases))
        prefetch = (
            self.platform.testbed.prefetcher.enabled
            if prefetch_enabled is None
            else bool(prefetch_enabled)
        )

        with trace_span("engine.run", workload=spec.name):
            phases, placements, remote_capacity_ratio = self._execute(
                spec, prefetch, interference, reserved_local_bytes
            )
        return RunResult(
            workload=spec.name,
            input_label=spec.input_label,
            scale=spec.scale,
            config_label=self.platform.label,
            phases=phases,
            placements=placements,
            remote_capacity_ratio=remote_capacity_ratio,
            footprint_bytes=spec.footprint_bytes,
            prefetch_enabled=prefetch,
            interference_loi=interference.mean_loi(),
        )

    def access_profile(self, spec: WorkloadSpec, phases: Optional[Sequence[str]] = None) -> PageAccessProfile:
        """Aggregate page-level access counts of a run (for the Figure-6 curves).

        The profile is placement-independent: it reflects how the workload
        spreads its traffic over its own footprint, which is what the
        bandwidth-capacity scaling curve visualises.  Every page of every
        object with traffic is listed, zero-count pages included; counts sum
        in phase and object order, exactly as folding per-object profiles
        with :meth:`PageAccessProfile.merged` would.
        """
        rng = np.random.default_rng(self.seed)
        space = AddressSpace(
            page_bytes=self.platform.testbed.page_bytes,
            line_bytes=self.platform.testbed.cacheline_bytes,
        )
        objects = {o.name: o for o in space.register_all(spec.fresh_objects())}
        selected = set(phases) if phases is not None else None
        counts = np.zeros(space.total_pages, dtype=np.float64)
        touched = np.zeros(space.total_pages, dtype=bool)
        for phase in spec.phases:
            if selected is not None and phase.name not in selected:
                continue
            for name, fraction in phase.object_traffic.items():
                obj = objects[name]
                traffic_lines = (
                    phase.dram_bytes * fraction / self.platform.testbed.cacheline_bytes
                )
                if traffic_lines <= 0 or obj.n_pages == 0:
                    continue
                weights = obj.pattern.page_weights(obj.n_pages, rng)
                pages = slice(obj.first_page, obj.first_page + obj.n_pages)
                counts[pages] += weights * traffic_lines
                touched[pages] = True
        page_ids = np.flatnonzero(touched)
        return PageAccessProfile(page_ids, counts[page_ids])

    def l2_timeline(
        self,
        spec: WorkloadSpec,
        result: RunResult,
        steps_per_phase: Optional[int] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Timeline of L2 cachelines fetched per time bucket (Figure 7).

        Returns ``(bucket_end_times, lines_per_bucket)`` covering the whole
        run; each phase's traffic follows its declared temporal profile.
        """
        times: list[np.ndarray] = []
        lines: list[np.ndarray] = []
        clock = 0.0
        for phase_spec, phase_result in zip(spec.phases, result.phases):
            steps = steps_per_phase if steps_per_phase is not None else phase_spec.timeline_steps
            shape = phase_spec.traffic_shape(steps)
            total_lines = phase_result.counters[events.L2_LINES_IN]
            bucket_times = clock + np.linspace(
                phase_result.runtime / steps, phase_result.runtime, steps
            )
            times.append(bucket_times)
            lines.append(shape * total_lines)
            clock += phase_result.runtime
        if not times:
            return np.empty(0), np.empty(0)
        return np.concatenate(times), np.concatenate(lines)

    # -- internals -----------------------------------------------------------------------

    def _execute(
        self,
        spec: WorkloadSpec,
        prefetch: bool,
        interference: InterferenceSource,
        reserved_local_bytes: int,
    ) -> tuple[tuple[PhaseResult, ...], tuple[ObjectPlacementResult, ...], float]:
        """Phase results, final placements and remote capacity ratio of one run."""
        layout = self._layout(spec, reserved_local_bytes)
        phase_results: list[PhaseResult] = []
        clock = 0.0
        for phase, traffic, stream_fraction in zip(
            spec.phases, layout.traffic, layout.stream_fractions
        ):
            result = self._evaluate_phase(
                phase, traffic, stream_fraction, prefetch, interference, clock
            )
            phase_results.append(result)
            clock += result.runtime
        return tuple(phase_results), layout.placements, layout.remote_capacity_ratio

    def _layout(self, spec: WorkloadSpec, reserved_local_bytes: int) -> _Layout:
        """The layout of ``spec``, reused when the last run laid out the same one."""
        memo = self._layout_memo
        # ``is``, not ``id()``: the memo holds the spec, so it cannot be
        # collected and its id handed to a different workload.
        if (
            memo is not None
            and memo.spec is spec
            and memo.reserved_local_bytes == reserved_local_bytes
            and memo.platform is self.platform
            and memo.seed == self.seed
        ):
            return memo
        rng = np.random.default_rng(self.seed)
        memory, objects = self._build_memory(spec, reserved_local_bytes)
        traffic = []
        stream_fractions = []
        for phase in self._live_phases(spec, memory, objects):
            traffic.append(self._tier_traffic(phase, memory, objects, rng))
            stream_fractions.append(self._phase_stream_fraction(phase, objects))
        memo = _Layout(
            spec=spec,
            reserved_local_bytes=reserved_local_bytes,
            platform=self.platform,
            seed=self.seed,
            traffic=tuple(traffic),
            stream_fractions=tuple(stream_fractions),
            placements=self._placements(memory, objects),
            remote_capacity_ratio=memory.remote_capacity_ratio(),
        )
        self._layout_memo = memo
        return memo

    def _build_memory(
        self, spec: WorkloadSpec, reserved_local_bytes: int
    ) -> tuple[TieredMemory, dict[str, MemoryObject]]:
        space = AddressSpace(
            page_bytes=self.platform.testbed.page_bytes,
            line_bytes=self.platform.testbed.cacheline_bytes,
        )
        fresh = spec.fresh_objects()
        space.register_all(fresh)
        objects = {o.name: o for o in fresh}
        tier_config = self.platform.tier_config_for(spec.footprint_bytes)
        memory = TieredMemory(tier_config, space, reserved_local_bytes=reserved_local_bytes)
        late = set(spec.late_objects)
        # First-touch everything that exists before the compute phases, in
        # program allocation order.
        memory.touch_in_order([o for o in fresh if o.name not in late])
        return memory, objects

    def _live_phases(
        self,
        spec: WorkloadSpec,
        memory: TieredMemory,
        objects: dict[str, MemoryObject],
    ) -> Iterator[PhaseSpec]:
        """The phases in order, with the post-init changes applied before the second."""
        for index, phase in enumerate(spec.phases):
            if index == 1:
                self._apply_post_init_changes(spec, memory, objects)
            yield phase

    def _apply_post_init_changes(
        self,
        spec: WorkloadSpec,
        memory: TieredMemory,
        objects: dict[str, MemoryObject],
    ) -> None:
        """Free init-only objects, then place late (dynamic) allocations."""
        for name in spec.init_only_objects:
            memory.free(objects[name])
        for name in spec.late_objects:
            memory.touch(objects[name])

    @staticmethod
    def _placements(
        memory: TieredMemory, objects: dict[str, MemoryObject]
    ) -> tuple[ObjectPlacementResult, ...]:
        placements = []
        for obj in objects.values():
            tier_bytes = memory.object_tier_bytes(obj)
            placements.append(
                ObjectPlacementResult(
                    name=obj.name,
                    size_bytes=obj.size_bytes,
                    bytes_per_tier=tuple(tier_bytes[usage.name] for usage in memory.usage),
                    placement_policy=obj.placement,
                )
            )
        return tuple(placements)

    def _tier_traffic(
        self,
        phase: PhaseSpec,
        memory: TieredMemory,
        objects: dict[str, MemoryObject],
        rng: np.random.Generator,
    ) -> TierTraffic:
        """Split the phase's demand traffic over the memory tiers, run by run."""
        tiers = memory.config.tiers
        per_tier = np.zeros(len(tiers), dtype=np.float64)
        for name, fraction in phase.object_traffic.items():
            obj = objects[name]
            traffic = phase.dram_bytes * fraction
            if traffic <= 0 or obj.n_pages == 0:
                continue
            starts, run_tiers = memory.page_runs(obj)
            shares = obj.pattern.run_weights(obj.n_pages, starts, rng)
            # Pages that were freed (UNPLACED) no longer generate traffic —
            # attribute their share to the local tier, as a freed-and-reused
            # region would be.
            per_tier += traffic * _sum_by_tier(np.maximum(run_tiers, 0), shares, len(tiers))
        return TierTraffic(
            per_tier=tuple(per_tier),
            pooled=tuple(t.pooled for t in tiers),
        )

    def _phase_stream_fraction(
        self, phase: PhaseSpec, objects: dict[str, MemoryObject]
    ) -> float:
        if phase.stream_fraction is not None:
            return phase.stream_fraction
        total = 0.0
        for name, fraction in phase.object_traffic.items():
            total += fraction * objects[name].pattern.stream_fraction
        return float(np.clip(total, 0.0, 1.0))

    def _phase_model(
        self,
        phase: PhaseSpec,
        traffic: TierTraffic,
        stream_fraction: float,
        prefetch: bool,
        background_bw: float,
        share: float = 1.0,
    ) -> tuple[KernelCacheStats, TimeBreakdown]:
        """Cache and performance model of ``share`` of one phase's work."""
        cache_stats = self.platform.cache_model.stats_from_fraction(
            demand_dram_bytes=phase.dram_bytes * share,
            stream_fraction=stream_fraction,
            write_fraction=phase.write_fraction,
            accuracy_hint=phase.prefetch_accuracy_hint,
            prefetch_enabled=prefetch,
        )
        # Useless prefetch traffic is charged to the traffic counters but not
        # to the runtime: hardware prefetchers throttle under bandwidth
        # pressure, so the wasted fetches mostly consume otherwise-idle
        # bandwidth (SuperLU's 37% extra traffic still yields a net speedup
        # in the paper).
        breakdown = self.platform.performance_model.phase_time(
            PhaseInputs(
                flops=phase.flops * share,
                local_demand_bytes=traffic.local * share,
                remote_demand_bytes=traffic.remote * share,
                local_extra_bytes=0.0,
                remote_extra_bytes=0.0,
                prefetch_coverage=cache_stats.covered_fraction,
                mlp=phase.mlp,
                background_bandwidth=background_bw,
            )
        )
        return cache_stats, breakdown

    def _set_phase_counters(
        self,
        counters: CounterSet,
        phase: PhaseSpec,
        runtime: float,
        local_bytes: float,
        remote_bytes: float,
        own_remote_bw: float,
        background_bw: float,
    ) -> float:
        """Record a phase's profiler counters; returns the link utilization."""
        line_bytes = self.platform.testbed.cacheline_bytes
        link = self.platform.link
        counters.set(events.FP_ARITH_OPS, phase.flops)
        counters.set(events.ELAPSED_SECONDS, runtime)
        counters.set(events.OFFCORE_LOCAL_DRAM, local_bytes / line_bytes)
        counters.set(events.OFFCORE_REMOTE_DRAM, remote_bytes / line_bytes)
        measured_bw = link.measured_traffic(own_remote_bw + background_bw)
        counters.set(events.UPI_TRAFFIC_BYTES, measured_bw * runtime)
        utilization = link.utilization(own_remote_bw + background_bw)
        counters.set(events.UPI_UTILIZATION, utilization)
        return utilization

    def _evaluate_phase(
        self,
        phase: PhaseSpec,
        traffic: TierTraffic,
        stream_fraction: float,
        prefetch: bool,
        interference: InterferenceSource,
        clock: float,
    ) -> PhaseResult:
        """Runtime and counters of one phase whose traffic split is known."""
        background_bw = interference.background_bandwidth(self.platform.link, clock)
        cache_stats, breakdown = self._phase_model(
            phase, traffic, stream_fraction, prefetch, background_bw
        )
        runtime = breakdown.runtime
        extra_bytes = cache_stats.useless_prefetch_lines * self.platform.testbed.cacheline_bytes
        remote_share = traffic.remote / max(traffic.total, 1e-12)
        counters = CounterSet(cache_stats.counters.as_dict())
        own_remote_bw = (traffic.remote + extra_bytes * remote_share) / max(runtime, 1e-12)
        utilization = self._set_phase_counters(
            counters, phase, runtime, traffic.local, traffic.remote, own_remote_bw, background_bw
        )
        return PhaseResult(
            name=phase.name,
            runtime=runtime,
            flops=phase.flops,
            dram_bytes=phase.dram_bytes,
            local_bytes=traffic.local,
            remote_bytes=traffic.remote,
            prefetch_coverage=cache_stats.covered_fraction,
            prefetch_accuracy=cache_stats.accuracy,
            excess_traffic_fraction=cache_stats.excess_traffic_fraction,
            counters=counters,
            breakdown=breakdown,
            link_utilization=utilization,
            background_bandwidth=background_bw,
        )
