"""The engine's run-based traffic split and its per-engine layout reuse."""

from dataclasses import replace

import numpy as np
import pytest

from repro.casestudies.bfs_placement import optimized_spec
from repro.memory.objects import (
    PLACEMENT_FIRST_TOUCH,
    PLACEMENT_INTERLEAVE,
    PLACEMENT_LOCAL,
    PLACEMENT_REMOTE,
)
from repro.profiler.level3 import Level3Profiler
from repro.runtime import MigratingExecutionEngine, MigrationPolicy
from repro.sim import ConstantInterference, ExecutionEngine, Platform
from repro.workloads import build_workload


def reference_tier_traffic(phase, memory, objects, rng):
    """The per-page split the engine used before it worked on page runs."""
    n_tiers = len(memory.usage)
    per_tier = np.zeros(n_tiers, dtype=np.float64)
    for name, fraction in phase.object_traffic.items():
        obj = objects[name]
        traffic = phase.dram_bytes * fraction
        if traffic <= 0 or obj.n_pages == 0:
            continue
        placement = memory.placement_of(obj)
        weights = obj.pattern.page_weights(obj.n_pages, rng)
        for tier in range(n_tiers):
            mask = placement == tier
            if mask.any():
                per_tier[tier] += traffic * float(weights[mask].sum())
        unplaced = placement < 0
        if unplaced.any():
            per_tier[0] += traffic * float(weights[unplaced].sum())
    return per_tier


def with_placement(spec, policy):
    """``spec`` with every second object forced to ``policy``."""
    objects = tuple(
        replace(o, placement=policy) if i % 2 else o for i, o in enumerate(spec.objects)
    )
    return replace(spec, objects=objects)


def roomy_platform(spec, local_fraction):
    """Room for the whole footprint remotely, so forced placements always fit."""
    fp = spec.footprint_bytes
    return Platform.explicit(int(fp * local_fraction) + fp // 10, fp)


def assert_split_matches_reference(engine, spec, reserved_local_bytes=0, promote=False):
    memory, objects = engine._build_memory(spec, reserved_local_bytes)
    ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
    runs_seen = 0
    for phase in engine._live_phases(spec, memory, objects):
        if promote:
            hot_pages, hot_counts = engine._page_hotness(
                phase, memory, objects, np.random.default_rng(3)
            )
            engine._promote_hot_pages(hot_pages, hot_counts, memory)
        expected = reference_tier_traffic(phase, memory, objects, theirs)
        traffic = engine._tier_traffic(phase, memory, objects, ours)
        np.testing.assert_allclose(traffic.per_tier, expected, rtol=1e-12, atol=0.0)
        runs_seen = max(runs_seen, *(len(memory.page_runs(o)[0]) for o in objects.values()))
    assert ours.integers(2**62) == theirs.integers(2**62)
    return memory, runs_seen


class TestRunBasedSplit:
    @pytest.mark.parametrize("name", ["HPL", "Hypre", "NekRS", "SuperLU", "BFS", "XSBench"])
    @pytest.mark.parametrize("local_fraction", [0.75, 0.25])
    def test_first_touch_matches_per_page_split(self, name, local_fraction):
        spec = build_workload(name, 1.0)
        engine = ExecutionEngine(Platform.pooled(spec.footprint_bytes, local_fraction))
        assert_split_matches_reference(engine, spec)

    def test_local_only_platform(self):
        spec = build_workload("BFS", 1.0)
        assert_split_matches_reference(ExecutionEngine(Platform.local_only()), spec)

    @pytest.mark.parametrize(
        "policy", [PLACEMENT_FIRST_TOUCH, PLACEMENT_LOCAL, PLACEMENT_REMOTE, PLACEMENT_INTERLEAVE]
    )
    def test_explicit_placements(self, policy):
        spec = with_placement(build_workload("SuperLU", 1.0), policy)
        engine = ExecutionEngine(roomy_platform(spec, 0.75))
        _, runs = assert_split_matches_reference(engine, spec)
        if policy == PLACEMENT_INTERLEAVE:
            # One run per page: the case where a sequential sum would drift.
            assert runs > 10_000

    def test_freed_and_late_objects(self):
        spec = optimized_spec(1.0)
        assert spec.init_only_objects and spec.late_objects
        engine = ExecutionEngine(roomy_platform(spec, 0.25))
        memory, _ = assert_split_matches_reference(engine, spec)
        freed = {o.name: o for o in memory.address_space}[spec.init_only_objects[0]]
        assert np.all(memory.placement_of(freed) < 0)

    def test_reserved_local_memory(self):
        spec = build_workload("XSBench", 1.0)
        engine = ExecutionEngine(roomy_platform(spec, 0.5))
        assert_split_matches_reference(engine, spec, reserved_local_bytes=spec.footprint_bytes // 10)

    def test_pages_promoted_by_the_migration_runtime(self):
        spec = build_workload("BFS", 1.0)
        engine = MigratingExecutionEngine(
            Platform.pooled(spec.footprint_bytes, 0.5),
            MigrationPolicy(promotion_budget_pages=2048),
        )
        memory, runs = assert_split_matches_reference(engine, spec, promote=True)
        assert memory.migrations > 0
        assert runs > 100


class TestLayoutReuse:
    SETTINGS = [
        (None, None),
        (False, ConstantInterference(30.0)),
        (True, ConstantInterference(50.0)),
        (None, None),
        (False, None),
    ]

    @pytest.mark.parametrize("name", ["Hypre", "BFS"])
    def test_reused_layout_equals_fresh_engine(self, name):
        spec = build_workload(name, 1.0)
        platform = Platform.pooled(spec.footprint_bytes, 0.5)
        shared = ExecutionEngine(platform, seed=4)
        for prefetch, interference in self.SETTINGS:
            fresh = ExecutionEngine(platform, seed=4).run(
                spec, prefetch_enabled=prefetch, interference=interference
            )
            reused = shared.run(spec, prefetch_enabled=prefetch, interference=interference)
            assert reused == fresh

    def test_layout_is_keyed_on_spec_reserved_bytes_and_seed(self, monkeypatch):
        hypre, xsbench = build_workload("Hypre", 1.0), build_workload("XSBench", 1.0)
        platform = Platform.explicit(hypre.footprint_bytes, 2 * hypre.footprint_bytes)
        engine = ExecutionEngine(platform)
        layouts = []
        build = engine._build_memory
        monkeypatch.setattr(
            engine, "_build_memory", lambda *a: layouts.append(a) or build(*a)
        )
        engine.run(hypre)
        engine.run(hypre, interference=ConstantInterference(20.0))
        assert len(layouts) == 1
        engine.run(hypre, reserved_local_bytes=hypre.footprint_bytes // 4)
        engine.run(xsbench)
        # An equal but distinct spec object is laid out again.
        engine.run(replace(xsbench))
        engine.run(hypre)
        assert len(layouts) == 5
        assert engine.run(hypre) == ExecutionEngine(platform).run(hypre)
        assert len(layouts) == 5
        # Changing the engine's seed invalidates the layout too.
        engine.seed = 9
        assert engine.run(hypre) == ExecutionEngine(platform, seed=9).run(hypre)
        assert len(layouts) == 6

    def test_migrating_engine_never_reuses_a_layout(self, monkeypatch):
        spec = build_workload("BFS", 1.0)
        platform = Platform.pooled(spec.footprint_bytes, 0.5)
        engine = MigratingExecutionEngine(platform, MigrationPolicy(epoch_seconds=5.0))
        layouts = []
        build = engine._build_memory
        monkeypatch.setattr(
            engine, "_build_memory", lambda *a: layouts.append(a) or build(*a)
        )
        first = engine.run(spec)
        stats = engine.last_migration_stats
        second = engine.run(spec)
        assert len(layouts) == 2
        assert engine._layout_memo is None
        assert stats.promoted_pages > 0
        assert engine.last_migration_stats == stats
        assert second == first

    def test_interference_coefficient_lays_the_spec_out_once(self, monkeypatch):
        spec = build_workload("Hypre", 1.0)
        platform = Platform.pooled(spec.footprint_bytes, 0.5)
        runs, layouts = [], []
        run, build = ExecutionEngine.run, ExecutionEngine._build_memory
        monkeypatch.setattr(
            ExecutionEngine, "run", lambda self, *a, **k: runs.append(a) or run(self, *a, **k)
        )
        monkeypatch.setattr(
            ExecutionEngine,
            "_build_memory",
            lambda self, *a: layouts.append(a) or build(self, *a),
        )
        report = Level3Profiler(seed=0).interference_coefficient(spec, platform)
        assert len(runs) == 1 + len(Level3Profiler.DEFAULT_LOI_LEVELS) == 7
        assert len(layouts) == 1
        assert report.sensitivity.baseline_runtime > 0
