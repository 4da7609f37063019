"""Tests for access-pattern generators, including hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.patterns import (
    PATTERNS,
    BlockedPattern,
    GatherPattern,
    HotColdPattern,
    RandomPattern,
    SequentialPattern,
    StridedPattern,
    ZipfPattern,
    make_pattern,
)


ALL_PATTERNS = [
    SequentialPattern(),
    StridedPattern(stride_lines=2),
    RandomPattern(),
    ZipfPattern(alpha=1.1),
    HotColdPattern(hot_fraction=0.1, hot_traffic=0.9),
    BlockedPattern(block_lines=64),
    GatherPattern(indexed_fraction=0.5),
]


@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=lambda p: type(p).__name__)
class TestCommonProperties:
    def test_offsets_in_range(self, pattern, rng):
        offsets = pattern.sample_offsets(1000, 500, rng)
        assert len(offsets) == 500
        assert offsets.min() >= 0
        assert offsets.max() < 1000

    def test_page_weights_normalised(self, pattern, rng):
        weights = pattern.page_weights(257, rng)
        assert len(weights) == 257
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(weights >= 0)

    def test_empty_inputs(self, pattern, rng):
        assert len(pattern.sample_offsets(0, 10, rng)) == 0
        assert len(pattern.sample_offsets(10, 0, rng)) == 0
        assert len(pattern.page_weights(0, rng)) == 0

    def test_stream_fraction_in_unit_interval(self, pattern, rng):
        assert 0.0 <= pattern.stream_fraction <= 1.0


# -- pattern-specific behaviour ------------------------------------------------------


def test_sequential_is_contiguous(rng):
    offsets = SequentialPattern().sample_offsets(10_000, 100, rng)
    deltas = np.diff(offsets)
    assert np.all(deltas == 1)


def test_sequential_covers_object_when_oversampled(rng):
    offsets = SequentialPattern().sample_offsets(10, 25, rng)
    assert set(np.unique(offsets)) == set(range(10))


def test_strided_has_constant_stride(rng):
    pattern = StridedPattern(stride_lines=3)
    offsets = pattern.sample_offsets(10_000, 50, rng)
    deltas = np.diff(offsets)
    # All strides equal 3 except possibly at the wrap-around point.
    assert np.sum(deltas != 3) <= 1


def test_strided_rejects_bad_stride():
    with pytest.raises(ValueError):
        StridedPattern(stride_lines=0)


def test_random_spreads_widely(rng):
    offsets = RandomPattern().sample_offsets(100_000, 5_000, rng)
    # Expect close to 5000 unique lines (few collisions).
    assert len(np.unique(offsets)) > 4_000


def test_zipf_weights_are_skewed(rng):
    weights = ZipfPattern(alpha=1.2).page_weights(1000, rng)
    top_decile = np.sort(weights)[::-1][:100].sum()
    assert top_decile > 0.3  # top 10% of pages take far more than 10% of traffic


def test_zipf_skew_increases_with_alpha(rng):
    rng2 = np.random.default_rng(1234)
    low = np.sort(ZipfPattern(alpha=0.6).page_weights(2000, rng))[::-1][:200].sum()
    high = np.sort(ZipfPattern(alpha=1.5).page_weights(2000, rng2))[::-1][:200].sum()
    assert high > low


def test_zipf_rejects_bad_alpha():
    with pytest.raises(ValueError):
        ZipfPattern(alpha=0.0)


def test_hotcold_weights_concentrated_in_hot_set(rng):
    pattern = HotColdPattern(hot_fraction=0.1, hot_traffic=0.9)
    weights = pattern.page_weights(1000, rng)
    assert weights[:100].sum() == pytest.approx(0.9 + 0.1 * 0.1, rel=0.05)


def test_hotcold_offsets_prefer_hot_lines(rng):
    pattern = HotColdPattern(hot_fraction=0.1, hot_traffic=0.95)
    offsets = pattern.sample_offsets(10_000, 20_000, rng)
    hot_share = np.mean(offsets < 1000)
    assert hot_share > 0.85


def test_hotcold_validation():
    with pytest.raises(ValueError):
        HotColdPattern(hot_fraction=0.0)
    with pytest.raises(ValueError):
        HotColdPattern(hot_traffic=1.5)


def test_blocked_runs_sequentially_within_blocks(rng):
    pattern = BlockedPattern(block_lines=128)
    offsets = pattern.sample_offsets(100_000, 256, rng)
    deltas = np.diff(offsets)
    assert np.mean(deltas == 1) > 0.9


def test_blocked_rejects_bad_block():
    with pytest.raises(ValueError):
        BlockedPattern(block_lines=0)


def test_gather_mixes_streamed_and_skewed(rng):
    pattern = GatherPattern(indexed_fraction=0.5)
    weights = pattern.page_weights(1000, rng)
    uniform = 1.0 / 1000
    # More skewed than uniform, less skewed than pure zipf.
    assert weights.max() > uniform
    assert weights.max() < ZipfPattern(alpha=0.8).page_weights(1000, np.random.default_rng(1)).max() + 1e-3


def test_gather_validation():
    with pytest.raises(ValueError):
        GatherPattern(indexed_fraction=1.5)
    with pytest.raises(ValueError):
        GatherPattern(skew_alpha=0.0)


# -- registry -------------------------------------------------------------------------


def test_registry_contains_all_names():
    assert set(PATTERNS) == {
        "sequential",
        "strided",
        "random",
        "zipf",
        "hotcold",
        "blocked",
        "gather",
    }


def test_make_pattern_by_name():
    pattern = make_pattern("zipf", alpha=1.3)
    assert isinstance(pattern, ZipfPattern)
    assert pattern.alpha == 1.3


def test_make_pattern_unknown_name():
    with pytest.raises(ValueError, match="unknown access pattern"):
        make_pattern("fancy")


# -- property-based tests --------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    n_pages=st.integers(min_value=1, max_value=5000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    name=st.sampled_from(sorted(PATTERNS)),
)
def test_page_weights_always_normalised(n_pages, seed, name):
    pattern = make_pattern(name)
    weights = pattern.page_weights(n_pages, np.random.default_rng(seed))
    assert len(weights) == n_pages
    assert np.all(weights >= 0)
    assert weights.sum() == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=50, deadline=None)
@given(
    n_lines=st.integers(min_value=1, max_value=100_000),
    n_samples=st.integers(min_value=1, max_value=2000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    name=st.sampled_from(sorted(PATTERNS)),
)
def test_sample_offsets_always_in_bounds(n_lines, n_samples, seed, name):
    pattern = make_pattern(name)
    offsets = pattern.sample_offsets(n_lines, n_samples, np.random.default_rng(seed))
    assert len(offsets) == n_samples
    assert offsets.dtype == np.int64
    assert offsets.min() >= 0
    assert offsets.max() < n_lines


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_patterns_are_deterministic_given_seed(seed):
    for name in PATTERNS:
        pattern = make_pattern(name)
        a = pattern.sample_offsets(1000, 200, np.random.default_rng(seed))
        b = pattern.sample_offsets(1000, 200, np.random.default_rng(seed))
        np.testing.assert_array_equal(a, b)


# -- run weights: the engine's per-run view of page_weights ----------------------------


@st.composite
def _pattern_and_runs(draw):
    name = draw(st.sampled_from(sorted(PATTERNS)))
    if name == "hotcold":
        pattern = HotColdPattern(
            hot_fraction=draw(st.floats(min_value=1e-3, max_value=1.0)),
            hot_traffic=draw(st.floats(min_value=0.0, max_value=1.0)),
        )
    else:
        pattern = make_pattern(name)
    n_pages = draw(st.integers(min_value=1, max_value=5000))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=max(n_pages - 1, 1)), max_size=40))
    starts = np.array([0] + sorted(c for c in cuts if c < n_pages), dtype=np.int64)
    return pattern, n_pages, starts


@settings(max_examples=100, deadline=None)
@given(case=_pattern_and_runs(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_run_weights_match_reduced_page_weights(case, seed):
    pattern, n_pages, starts = case
    by_page, by_run = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = np.add.reduceat(pattern.page_weights(n_pages, by_page), starts)
    shares = pattern.run_weights(n_pages, starts, by_run)
    assert shares.shape == starts.shape
    np.testing.assert_allclose(shares, expected, rtol=1e-12, atol=0.0)
    # Both calls leave the generator in the same state.
    assert by_run.integers(2**62) == by_page.integers(2**62)


@pytest.mark.parametrize("name", ["sequential", "strided", "random", "blocked", "hotcold"])
def test_closed_form_run_weights_never_build_a_page_array(name, rng):
    # 10^12 pages would need terabytes as a per-page array.
    n_pages = 10**12
    starts = np.array([0, 7, 10**11, 5 * 10**11], dtype=np.int64)
    shares = make_pattern(name).run_weights(n_pages, starts, rng)
    assert shares.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.all(shares > 0)


def test_run_weights_of_empty_object(rng):
    for pattern in ALL_PATTERNS:
        assert len(pattern.run_weights(0, np.empty(0, dtype=np.int64), rng)) == 0
