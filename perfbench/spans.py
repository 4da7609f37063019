"""In-memory span tracing of the program's layers, from the benchmark's side.

:class:`SpanTracer` replaces public methods of ``repro`` classes with
wrappers that record one span per call: name, start, end and the span open
when the call began (its parent). Nothing inside ``src/`` changes; the
wrappers are installed for the traced run only and removed afterwards.

A span's *self time* is its duration minus the durations of its direct
children. Every span but the root has its parent inside the tree, so the
self times of all spans add up to the root's duration exactly; the root
(the benchmark's own loop) keeps the time no layer claims.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterable

ROOT = "bench"

#: Span name -> (module, class, methods). A class of ``None`` means every
#: class of the module that defines the first listed method itself.
TARGETS: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("casestudies", "repro.casestudies.trace_replay", "TraceReplayStudy", ("run",)),
    ("casestudies", "repro.casestudies.scheduling", "CoupledSchedulingStudy", ("run",)),
    ("data.slurm", "repro.data.slurm", "SacctReader", ("__iter__",)),
    ("scheduler.loop", "repro.scheduler.simulator", "ClusterSimulator", ("run",)),
    ("scheduler.policy", "repro.scheduler.policies", None, ("choose_rack",)),
    ("fabric.cluster.step", "repro.fabric.cluster", "ClusterCoSimulator", ("step",)),
    ("fabric.cosim.rates", "repro.fabric.cluster", "ClusterCoSimulator", ("progress_rates", "horizon")),
    ("fabric.admit", "repro.fabric.cluster", "ClusterCoSimulator", ("admit", "withdraw")),
    ("fabric.cosim.run", "repro.fabric.cosim", "RackCoSimulator", ("run",)),
    ("fabric.cosim.step", "repro.fabric.cosim", "RackCoSimulator", ("step", "step_frozen")),
    ("fabric.cosim.rates", "repro.fabric.cosim", "RackCoSimulator", ("progress_rates", "horizon")),
    ("fabric.admit", "repro.fabric.cosim", "RackCoSimulator", ("admit", "withdraw")),
    ("fabric.solve", "repro.fabric.topology", "FabricTopology", ("resolve", "resolve_detailed")),
    ("fabric.solve", "repro.fabric.cluster", "ClusterFabric", ("resolve_all", "resolve_racks")),
    ("sim.engine", "repro.sim.engine", "ExecutionEngine", ("run", "access_profile", "l2_timeline")),
    ("sim.perfmodel", "repro.sim.perfmodel", "PerformanceModel", ("phase_time",)),
    ("interconnect.link", "repro.interconnect.link", "RemoteLink", ("share",)),
    ("profiler.level1", "repro.profiler.profiler", "MultiLevelProfiler", ("level1",)),
    ("profiler.level2", "repro.profiler.profiler", "MultiLevelProfiler", ("level2", "level2_sweep")),
    ("profiler.level3", "repro.profiler.profiler", "MultiLevelProfiler", ("level3", "level3_sensitivity")),
    (
        "memory.tiered",
        "repro.memory.tiered",
        "TieredMemory",
        ("__init__", "touch", "touch_in_order", "free", "migrate", "placement_of", "object_tier_bytes"),
    ),
    ("trace.access", "repro.trace.patterns", None, ("page_weights", "sample_offsets")),
    ("trace.access", "repro.trace.access", "PageAccessProfile", ("from_batch", "merged")),
)

#: Layers whose shares the traced run reports; a span belongs to the layer
#: named by the first part of its name, the root to none.
LAYERS = ("data", "scheduler", "fabric", "sim", "interconnect", "profiler", "memory", "trace", "casestudies")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class SpanTracer:
    """Records spans around wrapped methods; ``install``/``uninstall`` swap them."""

    def __init__(self) -> None:
        #: One ``(name, start, end, parent)`` per finished span; a slot is
        #: reserved (None) when the span opens so indices follow opening order.
        self.spans: list = []
        self._stack: list[int] = [-1]
        #: ``choose_rack`` offers that returned a rack.
        self.placed = 0
        self._saved: list[tuple[type, str, object]] = []

    # -- recording -----------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, count_placed: bool) -> Callable:
        spans, stack = self.spans, self._stack

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    index = len(spans)
                    spans.append(None)
                    parent = stack[-1]
                    stack.append(index)
                    start = perf_counter()
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end = perf_counter()
                        stack.pop()
                        spans[index] = (name, start, end, parent)
                    yield value

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count_placed and result is not None:
                self.placed += 1
            return result

        return wrapper

    def root(self, fn: Callable[[], object]):
        """Run ``fn`` inside the root span; returns its result."""
        return self._wrap(ROOT, fn, False)()

    # -- installation --------------------------------------------------------------

    def install(self, targets: Iterable = TARGETS) -> None:
        """Wrap every target method; raises if one no longer exists."""
        for name, module_name, class_name, methods in targets:
            module = importlib.import_module(module_name)
            if class_name is None:
                classes = [
                    cls
                    for _, cls in inspect.getmembers(module, inspect.isclass)
                    if cls.__module__ == module_name and methods[0] in cls.__dict__
                ]
            else:
                classes = [getattr(module, class_name)]
            for cls in classes:
                for method in methods:
                    if class_name is None and method not in cls.__dict__:
                        continue
                    self._install_one(cls, method, name)

    def _install_one(self, cls: type, method: str, name: str) -> None:
        raw = cls.__dict__[method]
        self._saved.append((cls, method, raw))
        placed = name == "scheduler.policy"
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(self._wrap(name, raw.__func__, placed)))
        else:
            setattr(cls, method, self._wrap(name, raw, placed))

    def uninstall(self) -> None:
        """Put every wrapped method back, last wrapped first."""
        while self._saved:
            cls, method, raw = self._saved.pop()
            setattr(cls, method, raw)

    # -- reading -------------------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """(self seconds, call count) per span name over all finished spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _ = span
            self_s[name] += (end - start) - child[index]
            calls[name] += 1
        return dict(self_s), dict(calls)

    def root_wall(self) -> float:
        """Summed duration of the root spans."""
        return sum(s[2] - s[1] for s in self.spans if s is not None and s[0] == ROOT)
