"""Tests for the execution engine."""

import numpy as np
import pytest

from repro.cache import events
from repro.sim import ConstantInterference, ExecutionEngine, Platform
from repro.memory.objects import AddressSpace
from repro.trace.access import PageAccessProfile
from repro.workloads import build_workload, workload_names
from repro.workloads.base import PhaseSpec, WorkloadSpec
from repro.memory.objects import MemoryObject
from repro.trace.patterns import SequentialPattern
from repro.config.units import MiB


def tiny_spec(local_hot_first=True):
    """A small synthetic workload with a hot and a cold object."""
    hot = MemoryObject(name="hot", size_bytes=64 * MiB, pattern=SequentialPattern())
    cold = MemoryObject(name="cold", size_bytes=192 * MiB, pattern=SequentialPattern())
    objects = (hot, cold) if local_hot_first else (cold, hot)
    phases = (
        PhaseSpec(
            name="p1",
            flops=1e9,
            dram_bytes=256 * MiB,
            object_traffic={"hot": 0.5, "cold": 0.5},
            mlp=8.0,
        ),
        PhaseSpec(
            name="p2",
            flops=5e10,
            dram_bytes=2_000 * MiB,
            object_traffic={"hot": 0.8, "cold": 0.2},
            mlp=8.0,
        ),
    )
    return WorkloadSpec(
        name="tiny", input_label="t1", scale=1.0, objects=objects, phases=phases
    )


class TestBasicRuns:
    def test_local_only_run_has_no_remote_traffic(self):
        spec = tiny_spec()
        result = ExecutionEngine(Platform.local_only(), seed=0).run(spec)
        assert result.total_remote_bytes == 0.0
        assert result.remote_access_ratio == 0.0
        assert result.remote_capacity_ratio == 0.0
        assert result.total_runtime > 0
        assert [p.name for p in result.phases] == ["p1", "p2"]

    def test_counters_populated(self):
        spec = tiny_spec()
        result = ExecutionEngine(Platform.local_only(), seed=0).run(spec)
        counters = result.counters
        assert counters[events.FP_ARITH_OPS] == pytest.approx(spec.total_flops)
        assert counters[events.L2_LINES_IN] > 0
        assert counters[events.OFFCORE_LOCAL_DRAM] > 0
        assert counters[events.OFFCORE_REMOTE_DRAM] == 0

    def test_pooled_run_splits_traffic(self):
        spec = tiny_spec()
        platform = Platform.pooled(spec.footprint_bytes, 0.5)
        result = ExecutionEngine(platform, seed=0).run(spec)
        assert result.total_remote_bytes > 0
        assert 0.0 < result.remote_access_ratio < 1.0
        assert result.remote_capacity_ratio == pytest.approx(0.5, abs=0.05)
        assert result.config_label == "50-50"

    def test_determinism(self):
        spec = tiny_spec()
        platform = Platform.pooled(spec.footprint_bytes, 0.5)
        a = ExecutionEngine(platform, seed=3).run(spec)
        b = ExecutionEngine(platform, seed=3).run(spec)
        assert a.total_runtime == b.total_runtime
        assert a.remote_access_ratio == b.remote_access_ratio

    def test_allocation_order_changes_placement(self):
        hot_first = tiny_spec(local_hot_first=True)
        cold_first = tiny_spec(local_hot_first=False)
        # Local tier sized to hold only the hot object.
        platform_a = Platform.explicit(80 * MiB, 400 * MiB)
        platform_b = Platform.explicit(80 * MiB, 400 * MiB)
        a = ExecutionEngine(platform_a, seed=0).run(hot_first)
        b = ExecutionEngine(platform_b, seed=0).run(cold_first)
        # With the hot object first it is local, so remote access is lower.
        assert a.remote_access_ratio < b.remote_access_ratio
        assert a.placement("hot").remote_fraction < 0.1
        assert b.placement("hot").remote_fraction > 0.9

    def test_reserved_local_bytes_pushes_traffic_remote(self):
        spec = tiny_spec()
        platform = Platform.explicit(300 * MiB, 400 * MiB)
        free = ExecutionEngine(platform, seed=0).run(spec)
        platform2 = Platform.explicit(300 * MiB, 400 * MiB)
        wasted = ExecutionEngine(platform2, seed=0).run(spec, reserved_local_bytes=200 * MiB)
        assert wasted.remote_access_ratio > free.remote_access_ratio


class TestPrefetchingAndInterference:
    def test_prefetch_toggle_changes_counters_and_runtime(self):
        spec = build_workload("NekRS", 1.0)
        engine = ExecutionEngine(Platform.local_only(), seed=0)
        on = engine.run(spec, prefetch_enabled=True)
        off = engine.run(spec, prefetch_enabled=False)
        assert on.counters[events.PF_L2_DATA_RD] > 0
        assert off.counters[events.PF_L2_DATA_RD] == 0
        assert off.total_runtime > on.total_runtime
        assert on.prefetch_enabled and not off.prefetch_enabled

    def test_interference_slows_pooled_run(self):
        spec = build_workload("Hypre", 1.0)
        platform = Platform.pooled(spec.footprint_bytes, 0.5)
        engine = ExecutionEngine(platform, seed=0)
        idle = engine.run(spec)
        loaded = engine.run(spec, interference=ConstantInterference(50.0))
        assert loaded.total_runtime > idle.total_runtime
        assert loaded.interference_loi == 50.0
        assert loaded.phases[-1].background_bandwidth > 0

    def test_interference_loi_recorded_as_zero_when_idle(self):
        spec = tiny_spec()
        result = ExecutionEngine(Platform.local_only(), seed=0).run(spec)
        assert result.interference_loi == 0.0


class TestLateAndFreedObjects:
    def test_late_object_placed_after_init(self, bfs_spec):
        platform = Platform.pooled(bfs_spec.footprint_bytes, 0.25)
        result = ExecutionEngine(platform, seed=0).run(bfs_spec)
        # The dynamically allocated frontier exists in the placement report.
        frontier = result.placement("frontier-heap")
        assert sum(frontier.bytes_per_tier) > 0

    def test_init_only_object_frees_local_memory(self):
        spec = tiny_spec()
        freed = WorkloadSpec(
            name=spec.name,
            input_label=spec.input_label,
            scale=spec.scale,
            objects=spec.objects,
            phases=spec.phases,
            init_only_objects=("cold",),
        )
        platform = Platform.explicit(80 * MiB, 400 * MiB)
        result = ExecutionEngine(platform, seed=0).run(freed)
        # After freeing, the cold object's p2 traffic is attributed locally.
        assert result.phases[1].remote_bytes <= result.phases[0].remote_bytes * 5


class TestMiddleTierAccounting:
    def three_tier_platform(self):
        """local DRAM + a middle CXL tier + a bottom pool tier."""
        from repro.config.tiers import TieredMemoryConfig, TierSpec
        from repro.config import SKYLAKE_EMULATION as tb

        config = TieredMemoryConfig(
            tiers=(
                TierSpec("local-dram", 100 * MiB, tb.local_bandwidth, tb.local_latency),
                TierSpec(
                    "cxl-direct", 100 * MiB, tb.remote_bandwidth, tb.remote_latency, pooled=True
                ),
                TierSpec(
                    "memory-pool", 200 * MiB, tb.remote_bandwidth, tb.remote_latency, pooled=True
                ),
            )
        )
        return Platform(tier_config=config, label="3-tier")

    def test_three_tier_traffic_conserved(self):
        """Middle-tier bytes must be routed, not dropped (local+remote == total)."""
        spec = tiny_spec()
        platform = self.three_tier_platform()
        result = ExecutionEngine(platform, seed=0).run(spec)
        for phase in result.phases:
            assert phase.local_bytes + phase.remote_bytes == pytest.approx(
                phase.dram_bytes, rel=1e-6
            )
        # The middle tier holds pages, so the pooled share exceeds what the
        # bottom tier alone could serve.
        assert result.total_remote_bytes > 0

    def test_tier_traffic_default_mask_counts_middle_as_remote(self):
        from repro.sim import TierTraffic

        traffic = TierTraffic(per_tier=(10.0, 5.0, 2.0))
        assert traffic.local == 10.0
        assert traffic.remote == 7.0
        assert traffic.total == 17.0

    def test_tier_traffic_explicit_mask(self):
        from repro.sim import TierTraffic

        traffic = TierTraffic(per_tier=(10.0, 5.0, 2.0), pooled=(False, False, True))
        assert traffic.local == 15.0
        assert traffic.remote == 2.0

    def test_tier_traffic_mismatched_mask_raises(self):
        from repro.config.errors import ConfigurationError
        from repro.sim import TierTraffic

        with pytest.raises(ConfigurationError):
            TierTraffic(per_tier=(10.0, 5.0, 2.0), pooled=(False, True))


class TestDerivedOutputs:
    def test_access_profile_covers_footprint_traffic(self):
        spec = tiny_spec()
        engine = ExecutionEngine(Platform.local_only(), seed=0)
        profile = engine.access_profile(spec)
        line_bytes = 64
        expected_lines = spec.total_dram_bytes / line_bytes
        assert profile.total_accesses == pytest.approx(expected_lines, rel=0.01)
        assert profile.n_pages <= spec.footprint_bytes // 4096 + len(spec.objects)

    def test_access_profile_phase_filter(self):
        spec = tiny_spec()
        engine = ExecutionEngine(Platform.local_only(), seed=0)
        p1_only = engine.access_profile(spec, phases=["p1"])
        assert p1_only.total_accesses == pytest.approx(spec.phase("p1").dram_bytes / 64, rel=0.01)

    def test_l2_timeline_conserves_lines(self):
        spec = tiny_spec()
        engine = ExecutionEngine(Platform.local_only(), seed=0)
        result = engine.run(spec)
        times, lines = engine.l2_timeline(spec, result, steps_per_phase=20)
        assert len(times) == len(lines) == 40
        assert np.all(np.diff(times) > 0)
        assert lines.sum() == pytest.approx(result.counters[events.L2_LINES_IN], rel=0.01)

    def test_run_result_lookups(self):
        spec = tiny_spec()
        result = ExecutionEngine(Platform.local_only(), seed=0).run(spec)
        assert result.phase("p2").name == "p2"
        with pytest.raises(KeyError):
            result.phase("p9")
        with pytest.raises(KeyError):
            result.placement("nothing")
        assert result.phase_label("p2") == "tiny-p2"
        assert result.summary()["workload"] == "tiny"


def folded_access_profile(engine, spec, phases=None):
    """Reference access profile: a fold of per-object profiles via ``merged``."""
    rng = np.random.default_rng(engine.seed)
    testbed = engine.platform.testbed
    space = AddressSpace(page_bytes=testbed.page_bytes, line_bytes=testbed.cacheline_bytes)
    objects = {o.name: o for o in space.register_all(spec.fresh_objects())}
    profile = PageAccessProfile(np.empty(0, dtype=np.int64), np.empty(0))
    for phase in spec.phases:
        if phases is not None and phase.name not in phases:
            continue
        for name, fraction in phase.object_traffic.items():
            obj = objects[name]
            traffic_lines = phase.dram_bytes * fraction / testbed.cacheline_bytes
            if traffic_lines <= 0 or obj.n_pages == 0:
                continue
            weights = obj.pattern.page_weights(obj.n_pages, rng)
            profile = profile.merged(PageAccessProfile(obj.page_range(), weights * traffic_lines))
    return profile


@pytest.mark.parametrize("subset", [False, True], ids=["all-phases", "subset"])
@pytest.mark.parametrize("scale", [0.5, 1.0])
@pytest.mark.parametrize("name", workload_names())
def test_access_profile_matches_merged_fold_bit_for_bit(name, scale, subset):
    spec = build_workload(name, scale)
    phases = [p.name for p in spec.phases[1:]] if subset else None
    if subset and not phases:
        phases = [spec.phases[0].name]
    engine = ExecutionEngine(Platform.local_only(), seed=3)
    profile = engine.access_profile(spec, phases=phases)
    expected = folded_access_profile(engine, spec, phases=phases)
    assert profile.page_ids.dtype == expected.page_ids.dtype
    assert profile.counts.dtype == expected.counts.dtype
    assert profile.page_ids.tobytes() == expected.page_ids.tobytes()
    assert profile.counts.tobytes() == expected.counts.tobytes()
