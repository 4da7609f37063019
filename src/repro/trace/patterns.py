"""Memory access pattern generators.

A workload kernel's traffic to a data object is described by an
:class:`AccessPattern`.  Each pattern can

* generate an ordered sample of cacheline offsets inside an object, as the
  core would issue them (used by the cache and prefetcher simulator),
* produce per-page *hotness weights*, i.e. how the object's traffic is spread
  across its footprint (used by the bandwidth-capacity scaling curves and the
  tier-access analysis),
* produce the same weights summed over contiguous *page runs* (used by the
  execution engine, which only needs each same-tier extent's share), and
* report its *stream fraction*, the share of accesses that belong to
  prefetcher-detectable sequential/strided streams (used by the analytical
  prefetch model when the sampled stream is too small to be representative).

Patterns are deterministic given a :class:`numpy.random.Generator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np


class AccessPattern(Protocol):
    """Protocol implemented by all access patterns."""

    #: Fraction of accesses that a stream prefetcher could cover (0..1).
    stream_fraction: float

    def sample_offsets(
        self, n_lines: int, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Ordered cacheline offsets (0 .. n_lines-1) as issued by the core."""
        ...

    def page_weights(self, n_pages: int, rng: np.random.Generator) -> np.ndarray:
        """Relative access weight of each page of the object (sums to 1)."""
        ...

    def run_weights(
        self, n_pages: int, starts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Access weight of each page run: ``np.add.reduceat(page_weights, starts)``.

        ``starts`` are the increasing first-page offsets of the runs, the
        first one 0; run ``i`` ends where run ``i + 1`` starts (the last one
        at ``n_pages``).  Consumes ``rng`` exactly as :meth:`page_weights`
        does, so either call leaves the generator in the same state.
        Patterns with a closed form never build a per-page array.
        """
        ...


def _run_lengths(n_pages: int, starts: np.ndarray) -> np.ndarray:
    """Page count of each run given its start offset."""
    return np.diff(starts, append=n_pages)


def _uniform_run_weights(n_pages: int, starts: np.ndarray) -> np.ndarray:
    """Run weights of a pattern that spreads traffic evenly over the pages."""
    return _run_lengths(n_pages, starts) / max(n_pages, 1)


def _normalise(weights: np.ndarray) -> np.ndarray:
    total = weights.sum()
    if total <= 0:
        return np.full(len(weights), 1.0 / max(len(weights), 1))
    return weights / total


@dataclass(frozen=True)
class SequentialPattern:
    """Unit-stride streaming over the whole object.

    Models dense array sweeps (STREAM, dense BLAS panels, stencil sweeps):
    all pages receive equal traffic and nearly every access is part of a
    prefetchable stream.
    """

    stream_fraction: float = 0.98

    def sample_offsets(
        self, n_lines: int, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        if n_lines <= 0 or n_samples <= 0:
            return np.empty(0, dtype=np.int64)
        if n_samples >= n_lines:
            reps = -(-n_samples // n_lines)
            offsets = np.tile(np.arange(n_lines, dtype=np.int64), reps)[:n_samples]
            return offsets
        # Sample a contiguous window starting at a random position so the
        # prefetcher sees an uninterrupted stream.
        start = int(rng.integers(0, n_lines - n_samples + 1))
        return np.arange(start, start + n_samples, dtype=np.int64)

    def page_weights(self, n_pages: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n_pages, 1.0 / max(n_pages, 1))

    def run_weights(
        self, n_pages: int, starts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return _uniform_run_weights(n_pages, starts)


@dataclass(frozen=True)
class StridedPattern:
    """Fixed-stride access (e.g. column sweeps, structured-grid neighbours).

    A stride of ``stride_lines`` cachelines is still detectable by the
    hardware stride prefetcher, but larger strides waste part of each fetched
    line, which lowers the effective stream fraction.
    """

    stride_lines: int = 2
    stream_fraction: float = 0.9

    def __post_init__(self) -> None:
        if self.stride_lines < 1:
            raise ValueError("stride must be >= 1 cacheline")

    def sample_offsets(
        self, n_lines: int, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        if n_lines <= 0 or n_samples <= 0:
            return np.empty(0, dtype=np.int64)
        start = int(rng.integers(0, max(self.stride_lines, 1)))
        offsets = (start + np.arange(n_samples, dtype=np.int64) * self.stride_lines) % n_lines
        return offsets

    def page_weights(self, n_pages: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n_pages, 1.0 / max(n_pages, 1))

    def run_weights(
        self, n_pages: int, starts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return _uniform_run_weights(n_pages, starts)


@dataclass(frozen=True)
class RandomPattern:
    """Uniformly random accesses over the object.

    Models hash-table probing and Monte-Carlo table lookups (XSBench's
    cross-section grid): no spatial locality, essentially nothing for the
    stream prefetcher to latch onto.
    """

    stream_fraction: float = 0.02

    def sample_offsets(
        self, n_lines: int, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        if n_lines <= 0 or n_samples <= 0:
            return np.empty(0, dtype=np.int64)
        return rng.integers(0, n_lines, size=n_samples, dtype=np.int64)

    def page_weights(self, n_pages: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n_pages, 1.0 / max(n_pages, 1))

    def run_weights(
        self, n_pages: int, starts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return _uniform_run_weights(n_pages, starts)


@dataclass(frozen=True)
class ZipfPattern:
    """Power-law (Zipf) page popularity with random access order.

    Models irregular pointer-heavy structures whose hot set is much smaller
    than the footprint — graph frontiers, degree-skewed adjacency lists.  The
    ``alpha`` exponent controls the skew; higher values concentrate traffic on
    fewer pages (the paper observes BFS's curve shifting left as the graph
    grows — i.e. effective alpha increasing with scale).
    """

    alpha: float = 1.1
    stream_fraction: float = 0.15

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("zipf alpha must be positive")

    def _rank_weights(self, n: int) -> np.ndarray:
        ranks = np.arange(1, n + 1, dtype=np.float64)
        return _normalise(ranks ** (-self.alpha))

    def sample_offsets(
        self, n_lines: int, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        if n_lines <= 0 or n_samples <= 0:
            return np.empty(0, dtype=np.int64)
        # Draw line popularity ranks from the zipf distribution, then scatter
        # ranks over line indices with a fixed permutation derived from rng.
        weights = self._rank_weights(min(n_lines, 1 << 16))
        ranks = rng.choice(len(weights), size=n_samples, p=weights)
        # Map ranks onto the full object with a multiplicative hash so hot
        # lines are spread across pages rather than clustered at offset 0.
        spread = (ranks.astype(np.int64) * 2654435761) % max(n_lines, 1)
        return spread

    def page_weights(self, n_pages: int, rng: np.random.Generator) -> np.ndarray:
        if n_pages <= 0:
            return np.empty(0, dtype=np.float64)
        weights = self._rank_weights(n_pages)
        # Shuffle so the hot pages are not physically contiguous -- matches the
        # paper's observation that hot data is interleaved through the heap.
        rng.shuffle(weights)
        return weights

    def run_weights(
        self, n_pages: int, starts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return np.add.reduceat(self.page_weights(n_pages, rng), starts)


@dataclass(frozen=True)
class HotColdPattern:
    """Two-population pattern: a hot fraction receives most of the traffic.

    Models allocations where only a small region is actively used (XSBench's
    grid where only sampled points are looked up, BFS's large but rarely
    touched graph construction buffers).  ``hot_fraction`` of the pages receive
    ``hot_traffic`` of the accesses.
    """

    hot_fraction: float = 0.1
    hot_traffic: float = 0.9
    stream_fraction: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        if not 0.0 <= self.hot_traffic <= 1.0:
            raise ValueError("hot_traffic must be in [0, 1]")

    def sample_offsets(
        self, n_lines: int, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        if n_lines <= 0 or n_samples <= 0:
            return np.empty(0, dtype=np.int64)
        hot_lines = max(int(round(n_lines * self.hot_fraction)), 1)
        hot_mask = rng.random(n_samples) < self.hot_traffic
        offsets = np.empty(n_samples, dtype=np.int64)
        n_hot = int(hot_mask.sum())
        offsets[hot_mask] = rng.integers(0, hot_lines, size=n_hot, dtype=np.int64)
        offsets[~hot_mask] = rng.integers(0, n_lines, size=n_samples - n_hot, dtype=np.int64)
        return offsets

    def page_weights(self, n_pages: int, rng: np.random.Generator) -> np.ndarray:
        if n_pages <= 0:
            return np.empty(0, dtype=np.float64)
        hot_pages = max(int(round(n_pages * self.hot_fraction)), 1)
        weights = np.full(n_pages, (1.0 - self.hot_traffic) / max(n_pages, 1))
        weights[:hot_pages] += self.hot_traffic / hot_pages
        return _normalise(weights)

    def run_weights(
        self, n_pages: int, starts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        if n_pages <= 0:
            return np.empty(0, dtype=np.float64)
        # Closed form of page_weights summed per run: every page carries the
        # cold share, and the pages of the hot prefix carry the hot share too.
        hot_pages = max(int(round(n_pages * self.hot_fraction)), 1)
        cold = (1.0 - self.hot_traffic) / n_pages
        hot = self.hot_traffic / hot_pages
        lengths = _run_lengths(n_pages, starts)
        hot_lengths = np.clip(hot_pages - starts, 0, lengths)
        return (lengths * cold + hot_lengths * hot) / (n_pages * cold + hot_pages * hot)


@dataclass(frozen=True)
class BlockedPattern:
    """Blocked/tiled traversal: sequential within blocks, jumps between them.

    Models tiled dense linear algebra (HPL's panel updates) and sparse
    factorisation supernodes: most accesses stream inside a block so the
    prefetcher does well, but each block transition breaks the stream.
    """

    block_lines: int = 512
    stream_fraction: float = 0.85

    def __post_init__(self) -> None:
        if self.block_lines < 1:
            raise ValueError("block size must be >= 1 line")

    def sample_offsets(
        self, n_lines: int, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        if n_lines <= 0 or n_samples <= 0:
            return np.empty(0, dtype=np.int64)
        block = min(self.block_lines, n_lines)
        n_blocks_needed = -(-n_samples // block)
        max_start = max(n_lines - block, 0)
        starts = rng.integers(0, max_start + 1, size=n_blocks_needed, dtype=np.int64)
        within = np.arange(block, dtype=np.int64)
        offsets = (starts[:, None] + within[None, :]).reshape(-1)[:n_samples]
        return offsets

    def page_weights(self, n_pages: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n_pages, 1.0 / max(n_pages, 1))

    def run_weights(
        self, n_pages: int, starts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return _uniform_run_weights(n_pages, starts)


@dataclass(frozen=True)
class GatherPattern:
    """Indexed gather: a streamed index array drives random value lookups.

    Models sparse matrix-vector products and Ligra's edge-map: the index
    stream itself is prefetchable, but the gathered values are not.  The
    ``indexed_fraction`` is the share of traffic going to the randomly
    addressed values.
    """

    indexed_fraction: float = 0.6
    skew_alpha: float = 0.8
    stream_fraction: float = 0.45

    def __post_init__(self) -> None:
        if not 0.0 <= self.indexed_fraction <= 1.0:
            raise ValueError("indexed_fraction must be in [0, 1]")
        if self.skew_alpha <= 0:
            raise ValueError("skew_alpha must be positive")

    def sample_offsets(
        self, n_lines: int, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        if n_lines <= 0 or n_samples <= 0:
            return np.empty(0, dtype=np.int64)
        n_indexed = int(round(n_samples * self.indexed_fraction))
        n_stream = n_samples - n_indexed
        stream = SequentialPattern().sample_offsets(n_lines, n_stream, rng)
        indexed = ZipfPattern(alpha=self.skew_alpha).sample_offsets(n_lines, n_indexed, rng)
        offsets = np.empty(n_samples, dtype=np.int64)
        # Interleave deterministically: place indexed accesses at evenly spread
        # positions so streams are broken the way a real gather breaks them.
        positions = np.zeros(n_samples, dtype=bool)
        if n_indexed > 0:
            idx = np.linspace(0, n_samples - 1, n_indexed).astype(np.int64)
            positions[idx] = True
        offsets[~positions] = stream[: int((~positions).sum())]
        offsets[positions] = indexed[: int(positions.sum())]
        return offsets

    def page_weights(self, n_pages: int, rng: np.random.Generator) -> np.ndarray:
        if n_pages <= 0:
            return np.empty(0, dtype=np.float64)
        uniform = np.full(n_pages, 1.0 / n_pages)
        skewed = ZipfPattern(alpha=self.skew_alpha).page_weights(n_pages, rng)
        return _normalise(
            (1.0 - self.indexed_fraction) * uniform + self.indexed_fraction * skewed
        )

    def run_weights(
        self, n_pages: int, starts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return np.add.reduceat(self.page_weights(n_pages, rng), starts)


#: Registry of pattern names usable from configuration files / CLI.
PATTERNS = {
    "sequential": SequentialPattern,
    "strided": StridedPattern,
    "random": RandomPattern,
    "zipf": ZipfPattern,
    "hotcold": HotColdPattern,
    "blocked": BlockedPattern,
    "gather": GatherPattern,
}


def make_pattern(name: str, **kwargs) -> AccessPattern:
    """Instantiate a pattern by registry name."""
    try:
        cls = PATTERNS[name]
    except KeyError as exc:
        raise ValueError(f"unknown access pattern {name!r}; known: {sorted(PATTERNS)}") from exc
    return cls(**kwargs)
