"""Tests for Level-3 profiling (interference sensitivity and coefficient)."""

import pytest

from repro.config.errors import ProfilerError
from repro.profiler.level3 import Level3Profiler, SensitivityCurve
from repro.sim.platform import Platform
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def profiler():
    return Level3Profiler(seed=0)


@pytest.fixture(scope="module")
def hypre_platform(hypre_spec):
    return Platform.pooled(hypre_spec.footprint_bytes, 0.5)


class TestSensitivityCurve:
    def test_requires_pooled_platform(self, profiler, hypre_spec):
        with pytest.raises(ProfilerError):
            profiler.sensitivity(hypre_spec, Platform.local_only())

    def test_curve_structure(self, profiler, hypre_spec, hypre_platform):
        curve = profiler.sensitivity(hypre_spec, hypre_platform, (0, 25, 50))
        assert curve.loi_levels == (0.0, 25.0, 50.0)
        assert curve.baseline_runtime == curve.runtimes[0]
        assert curve.relative_performance[0] == pytest.approx(1.0)

    def test_performance_degrades_with_loi(self, profiler, hypre_spec, hypre_platform):
        curve = profiler.sensitivity(hypre_spec, hypre_platform)
        rel = curve.relative_performance
        assert all(b <= a + 1e-9 for a, b in zip(rel, rel[1:]))
        assert curve.max_performance_loss > 0.02

    def test_slowdown_interpolation(self, profiler, hypre_spec, hypre_platform):
        curve = profiler.sensitivity(hypre_spec, hypre_platform, (0, 50))
        assert curve.slowdown_at(0.0) == pytest.approx(1.0)
        assert 1.0 <= curve.slowdown_at(25.0) <= curve.slowdown_at(50.0)

    def test_missing_baseline_level_is_added(self, profiler, hypre_spec, hypre_platform):
        curve = profiler.sensitivity(hypre_spec, hypre_platform, (10, 30))
        assert curve.loi_levels[0] == 0.0

    def test_curve_validation(self):
        with pytest.raises(ProfilerError):
            SensitivityCurve("w", "c", (10.0, 20.0), (1.0, 2.0))
        with pytest.raises(ProfilerError):
            SensitivityCurve("w", "c", (0.0, 20.0), (1.0,))

    @pytest.mark.parametrize("levels", [(0.0, 30.0, 10.0), (0.0, 10.0, 10.0)])
    def test_curve_rejects_non_increasing_levels(self, levels):
        with pytest.raises(ProfilerError, match="strictly increasing"):
            SensitivityCurve("w", "c", levels, (1.0, 1.2, 1.1))

    def test_out_of_order_levels_are_sorted(self, profiler, hypre_spec, hypre_platform):
        ordered = profiler.sensitivity(hypre_spec, hypre_platform, (0, 10, 30))
        shuffled = profiler.sensitivity(hypre_spec, hypre_platform, (30, 0, 10, 30))
        assert shuffled == ordered
        assert shuffled.loi_levels == (0.0, 10.0, 30.0)
        # The loss is read at the highest LoI and interpolation sees rising levels.
        assert shuffled.max_performance_loss == pytest.approx(0.0636, abs=5e-4)
        assert shuffled.slowdown_at(20.0) == pytest.approx(1.0493, abs=5e-4)

    def test_negative_levels_are_rejected(self, profiler, hypre_spec, hypre_platform):
        with pytest.raises(ProfilerError, match="non-negative"):
            profiler.sensitivity(hypre_spec, hypre_platform, (0, -10))

    def test_across_configs(self, profiler, hypre_spec):
        curves = profiler.sensitivity_across_configs(hypre_spec, (0.75, 0.25), (0, 50))
        assert set(curves) == {"75-25", "25-75"}
        # Less local capacity -> more remote access -> more sensitive.
        assert curves["25-75"].max_performance_loss >= curves["75-25"].max_performance_loss


class TestInterferenceCoefficient:
    def test_report_contents(self, profiler, hypre_spec, hypre_platform):
        report = profiler.interference_coefficient(hypre_spec, hypre_platform)
        assert report.interference_coefficient >= 1.0
        assert report.remote_bandwidth_demand > 0
        assert report.link_traffic_bytes > 0
        assert dict(report.phase_interference_coefficients).keys() == {"p1", "p2"}

    def test_induced_loi_is_the_remote_demand_as_loi(self, profiler, hypre_spec, hypre_platform):
        report = profiler.interference_coefficient(hypre_spec, hypre_platform)
        assert report.induced_loi > 0
        assert report.induced_loi == hypre_platform.link.loi(report.remote_bandwidth_demand)

    def test_memory_bound_apps_cause_more_interference(self, profiler):
        specs = [build_workload(name, 1.0) for name in ("Hypre", "XSBench")]
        reports = profiler.interference_coefficients(specs, local_fraction=0.5)
        assert (
            reports["Hypre"].interference_coefficient
            > reports["XSBench"].interference_coefficient
        )
        assert reports["XSBench"].interference_coefficient == pytest.approx(1.0, abs=0.05)

    def test_requires_pooled_platform(self, profiler, hypre_spec):
        with pytest.raises(ProfilerError):
            profiler.interference_coefficient(hypre_spec, Platform.local_only())
