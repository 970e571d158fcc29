"""Outside-in layer tracing for the traced run.

Spans are recorded from the benchmark process only, by wrapping each
layer's public entry points where their callers look them up (a name
a module imported with ``from x import f`` is patched on the importing
module).  Nothing inside the program is changed on disk, and every
patch is undone when :class:`LayerPatches` exits.

Each span records name, start, end, parent and op id; spans of one op
share its id.  Spans are kept in memory and summarized at the end.
"""

from __future__ import annotations

import functools
import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "KernelTally",
    "LayerPatches",
    "Recorder",
    "Span",
    "intersect_length",
    "union_length",
]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, op: Optional[int] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        s = Span(next(self._ids), name, perf_counter(),
                 parent=None if parent is None else parent.id, op=op)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            stack.pop()
            self.spans.append(s)

    def wrap(self, fn: Callable, name: str,
             on_result: Optional[Callable[[Dict, Any], None]] = None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = recorder.current()
            if parent is not None and parent.name == name:
                return fn(*args, **kwargs)  # a subclass calling super()
            with recorder.span(name) as s:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(s.attrs, result)
                return result

        return traced

    # -- summaries ------------------------------------------------------

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self) -> Dict[int, List[Span]]:
        out: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def self_time(self, span: Span,
                  kids: Dict[int, List[Span]]) -> float:
        """Duration minus the part its child spans cover."""
        covered = union_length(
            (c.start, c.end) for c in kids.get(span.id, ())
        )
        return span.duration - covered

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def total_self(self, name: str,
                   kids: Optional[Dict[int, List[Span]]] = None) -> float:
        kids = self.children() if kids is None else kids
        return sum(self.self_time(s, kids) for s in self.named(name))


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of intervals."""
    total = 0.0
    end = None
    start = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        elif b > end:
            end = b
    if end is not None:
        total += end - start
    return total


def intersect_length(a: Iterable[Tuple[float, float]],
                     b: Iterable[Tuple[float, float]]) -> float:
    """Length of (union of ``a``) intersected with (union of ``b``)."""
    ua, ub = _merge(a), _merge(b)
    i = j = 0
    total = 0.0
    while i < len(ua) and j < len(ub):
        lo = max(ua[i][0], ub[j][0])
        hi = min(ua[i][1], ub[j][1])
        if hi > lo:
            total += hi - lo
        if ua[i][1] < ub[j][1]:
            i += 1
        else:
            j += 1
    return total


def _merge(intervals) -> List[Tuple[float, float]]:
    out: List[Tuple[float, float]] = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


class KernelTally:
    """ObsHub hook summing ``kernel_batch`` events (worker-timed)."""

    def __init__(self) -> None:
        self.batches = 0
        self.seconds = 0.0
        self.edges = 0
        self._lock = threading.Lock()

    def reset(self) -> None:
        with self._lock:
            self.batches, self.seconds, self.edges = 0, 0.0, 0

    def on_kernel_batch(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self.batches += 1
            self.seconds += float(event["seconds"])
            self.edges += int(event["edges"])


def _pull_push(attrs, result) -> None:
    attrs["updates"] = int(result.updates_applied)
    attrs["edges"] = int(result.edges_traversed)


def _refresh_partition(attrs, result) -> None:
    _, stats = result
    attrs["touched"] = len(stats.touched_machines) / stats.num_machines


def _graph_apply(attrs, stats) -> None:
    attrs["compacted"] = bool(stats.compacted)


def _incremental(attrs, result) -> None:
    attrs["mode"] = result.mode


class LayerPatches:
    """Context manager installing span wrappers on every layer."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, name: str,
               on_result=None) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.recorder.wrap(original, name, on_result))

    def _patch_defining(self, classes: Iterable[type], attr: str,
                        name: str, on_result=None) -> None:
        for cls in classes:
            if attr in cls.__dict__:
                self._patch(cls, attr, name, on_result)

    def __enter__(self) -> "LayerPatches":
        import repro.api as api
        import repro.engine.base as engine_base
        import repro.serve.registry as registry
        import repro.serve.server as server
        from repro.algorithms import incremental
        from repro.bench.harness import RunResult
        from repro.exec import process  # noqa: F401 - loads the pool class
        from repro.exec.base import Executor
        from repro.graph.dynamic import DynamicGraph
        from repro.partition import OutgoingEdgeCut
        from repro.runtime.cost_model import CostModel

        self._patch(api.Session, "run", "api.run")
        self._patch(api.Session, "mutate", "api.mutate")
        engines = _subclasses(engine_base.BaseEngine)
        self._patch_defining(engines, "pull", "engine.pull", _pull_push)
        self._patch_defining(engines, "push", "engine.push", _pull_push)
        self._patch_defining(_subclasses(Executor), "map_machines",
                             "exec.map")
        self._patch(engine_base, "instrument_signal", "analysis.instrument")
        self._patch(CostModel, "execution_time", "runtime.cost")
        self._patch(OutgoingEdgeCut, "partition", "partition.build")
        self._patch(api, "refresh_partition", "partition.refresh",
                    _refresh_partition)
        self._patch(DynamicGraph, "apply", "graph.apply", _graph_apply)
        self._patch(DynamicGraph, "snapshot", "graph.snapshot")
        self._patch_defining(
            _subclasses(incremental._IncrementalBase), "refresh",
            "algorithms.refresh", _incremental,
        )
        self._patch(registry, "parse_graph_spec", "graph.generate")
        self._patch(server, "plan_batch", "serve.plan")
        self._patch(RunResult, "digest", "api.digest")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _subclasses(root: type) -> List[type]:
    out = [root]
    i = 0
    while i < len(out):
        out.extend(c for c in out[i].__subclasses__() if c not in out)
        i += 1
    return out
