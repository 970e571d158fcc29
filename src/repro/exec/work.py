"""Pure per-machine work units shared by every executor backend.

Each task function here computes what one simulated machine does in one
(phase, step) — a neighbor scan, a batched kernel invocation, or a push
sweep — against a read-only view of the graph and vertex state, and
returns a plain, picklable result.  All side effects (network sends,
counter increments, update buffering, dependency-store writes, obs
events) happen in the *parent*, which merges results in ascending
machine order; that merge replays exactly the sequence of effects the
old in-engine loops produced, which is what keeps counters, traffic,
and results bit-identical across serial, thread, and process backends.

Task functions receive a :class:`WorkerContext` (graph topology + state
+ an analyzed-signal cache), a ``shared`` dict broadcast to every task
of one map call, and one per-machine ``item`` dict.  They must not
mutate anything reachable from the context: dependency-state writes are
returned as explicit slices for the parent to apply.  The no-mutation
rule is doubly load-bearing under the process backend, where the state
arrays are shared-memory views aliased across every worker — a task
that wrote to them would race its siblings *and* corrupt the parent's
authoritative copy; purity is also what makes the executor's
crash-retry (respawn the pool, rerun the map's chunks) safe.
"""

from __future__ import annotations

import weakref
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.analysis.instrument import AnalyzedSignal, instrument_signal
from repro.analysis.kernelspec import KernelSpec, classify_push
from repro.engine.dep import DepStore
from repro.kernels import get_kernel

__all__ = [
    "WorkerContext",
    "parallel_pull_task",
    "circulant_kernel_task",
    "circulant_interp_task",
    "push_task",
]


class WorkerContext:
    """Read-only execution context a task function runs against.

    Holds the per-machine local adjacency lists, the master map, and
    the current :class:`~repro.engine.state.StateStore` (rebound before
    every map call).  ``analyzed()`` resolves a signal to its
    instrumented form: in-process backends pass the engine's cached
    :class:`AnalyzedSignal` through untouched; worker processes receive
    the original function (compiled UDFs do not pickle) and re-derive
    the analysis here, cached per function object.
    """

    def __init__(
        self,
        local_in: List[Any],
        local_out: List[Any],
        master_of: np.ndarray,
        num_vertices: int,
    ) -> None:
        self._local_in = local_in
        self._local_out = local_out
        self.master_of = master_of
        self.num_vertices = int(num_vertices)
        self.state = None
        self._analyzed: Dict[Any, AnalyzedSignal] = {}
        self._push_specs: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )

    def local_in(self, m: int):
        return self._local_in[m]

    def local_out(self, m: int):
        return self._local_out[m]

    def push_spec(self, push_signal: Callable) -> Optional[KernelSpec]:
        """``classify_push(push_signal)``, cached per function object."""
        spec = self._push_specs.get(push_signal)
        if spec is None:
            spec = self._push_specs[push_signal] = classify_push(push_signal)
        return spec

    def analyzed(self, signal) -> AnalyzedSignal:
        if isinstance(signal, AnalyzedSignal):
            return signal
        cached = self._analyzed.get(signal)
        if cached is None:
            cached = instrument_signal(signal)
            self._analyzed[signal] = cached
        return cached


class _CountingNeighbors:
    """Neighbor iterable counting examined elements (edges traversed)."""

    __slots__ = ("_array", "count")

    def __init__(self, array: np.ndarray) -> None:
        self._array = array
        self.count = 0

    def __iter__(self):
        for value in self._array:
            self.count += 1
            yield int(value)

    def __len__(self) -> int:
        return int(self._array.size)


def _interp_scan(
    fn: Callable, local, cand: np.ndarray, state
) -> Dict[str, Any]:
    """Original-signal scan over ``cand``; per-vertex emissions kept."""
    emit_v: List[int] = []
    emit_values: List[list] = []
    edges = 0
    for v in cand:
        v = int(v)
        nbrs = _CountingNeighbors(local.neighbors(v))
        emitted: list = []
        fn(v, nbrs, state, emitted.append)
        edges += nbrs.count
        if emitted:
            emit_v.append(v)
            emit_values.append(emitted)
    return {"edges": edges, "emit_v": emit_v, "emit_values": emit_values}


def parallel_pull_task(
    ctx: WorkerContext, shared: Dict[str, Any], item: Dict[str, Any]
) -> Dict[str, Any]:
    """One machine of the BSP parallel pull (Gemini schedule).

    ``shared['use_kernel']`` selects the batched fast path; the parent
    already verified the kernel plan applies, so the worker only has to
    resolve spec and kernel from the analyzed signal.
    """
    m = int(item["m"])
    analyzed = ctx.analyzed(shared["signal"])
    local = ctx.local_in(m)
    degs = local.degrees()
    active = shared["active"]
    cand = active[degs[active] > 0]
    if shared["use_kernel"]:
        spec = analyzed.kernel
        kernel = get_kernel(spec.kind)
        t0 = perf_counter() if shared["timed"] else 0.0
        batch = kernel(spec, ctx.state, local, cand, carried_in=None)
        seconds = perf_counter() - t0 if shared["timed"] else 0.0
        return {
            "m": m,
            "kernel": spec.kind,
            "edges": int(batch.edges.sum()),
            "vertices": int(cand.size),
            "emit_v": cand[batch.emit_mask],
            "emit_values": batch.values[batch.emit_mask],
            "seconds": seconds,
        }
    out = _interp_scan(analyzed.original, local, cand, ctx.state)
    out.update({"m": m, "kernel": None, "vertices": int(cand.size)})
    return out


def circulant_kernel_task(
    ctx: WorkerContext, shared: Dict[str, Any], item: Dict[str, Any]
) -> Dict[str, Any]:
    """One (step, machine) circulant batch on the kernel fast path.

    The parent resolves the dependency store: ``item['run']`` is the
    not-yet-broken high-degree slice, ``item['carried']`` its restored
    carried data (or None), ``item['low']`` the Gemini-scheduled rest.
    The worker only invokes the two kernel batches; break bits and
    carried values come back for the parent to write.
    """
    m = int(item["m"])
    analyzed = ctx.analyzed(shared["signal"])
    spec = analyzed.kernel
    kernel = get_kernel(spec.kind)
    local = ctx.local_in(m)
    timed = shared["timed"]

    t0 = perf_counter() if timed else 0.0
    batch = kernel(
        spec, ctx.state, local, item["run"], carried_in=item["carried"]
    )
    high_seconds = perf_counter() - t0 if timed else 0.0
    t0 = perf_counter() if timed else 0.0
    low_batch = kernel(spec, ctx.state, local, item["low"])
    low_seconds = perf_counter() - t0 if timed else 0.0

    return {
        "m": m,
        "kind": spec.kind,
        "high_edges": int(batch.edges.sum()),
        "high_emit_mask": batch.emit_mask,
        "high_values": batch.values,
        "broke": batch.broke,
        "carried": batch.carried,
        "high_seconds": high_seconds,
        "low_edges": int(low_batch.edges.sum()),
        "low_emit_mask": low_batch.emit_mask,
        "low_values": low_batch.values,
        "low_seconds": low_seconds,
    }


def circulant_interp_task(
    ctx: WorkerContext, shared: Dict[str, Any], item: Dict[str, Any]
) -> Dict[str, Any]:
    """One (step, machine) circulant scan on the per-vertex interpreter.

    Rebuilds a machine-local :class:`DepStore` seeded with the incoming
    dependency slices for this machine's candidates, runs the exact
    per-vertex loop the serial engine runs (skip-bit filtering,
    instrumented UDF for high-degree vertices, original UDF for the
    rest), and returns emissions plus the outgoing dependency slices.
    """
    m = int(item["m"])
    analyzed = ctx.analyzed(shared["signal"])
    instrumented = analyzed.instrumented
    original = analyzed.original
    cand = item["cand"]
    high_sel = item["high_sel"]
    is_last = shared["is_last"]

    store = DepStore(
        ctx.num_vertices,
        shared["carried_vars"],
        share_data=shared["share_dep_data"],
    )
    store.skip[cand] = item["skip"]
    for name in store.data:
        store.data[name][cand] = item["data"][name]
        store.present[name][cand] = item["present"][name]

    local = ctx.local_in(m)
    state = ctx.state
    high_edges = low_edges = high_vertices = low_vertices = 0
    emit_v: List[int] = []
    emit_values: List[list] = []
    for i, v in enumerate(cand.tolist()):
        emitted: list = []
        if high_sel[i]:
            if store.skip[v]:
                continue
            handle = store.handle(v, is_last=is_last)
            nbrs = _CountingNeighbors(local.neighbors(v))
            instrumented(v, nbrs, state, emitted.append, handle)
            high_edges += nbrs.count
            high_vertices += 1
        else:
            nbrs = _CountingNeighbors(local.neighbors(v))
            original(v, nbrs, state, emitted.append)
            low_edges += nbrs.count
            low_vertices += 1
        if emitted:
            emit_v.append(v)
            emit_values.append(emitted)

    high = cand[high_sel]
    return {
        "m": m,
        "high_edges": high_edges,
        "low_edges": low_edges,
        "high_vertices": high_vertices,
        "low_vertices": low_vertices,
        "emit_v": emit_v,
        "emit_values": emit_values,
        "skip_out": store.skip[high],
        "data_out": {name: store.data[name][high] for name in store.data},
        "present_out": {
            name: store.present[name][high] for name in store.present
        },
    }


def push_task(
    ctx: WorkerContext, shared: Dict[str, Any], item: Dict[str, Any]
) -> Dict[str, Any]:
    """One machine of the sparse push phase.

    Returns ``owners`` — the master of each remote-mastered frontier
    vertex, in frontier order (its state must reach this machine) —
    and the non-None emissions as ``targets``/``values`` in the serial
    loop's order (frontier ascending, then local out-neighbor order),
    so coalesced push messages accumulate in the same dict order.
    ``shared['use_kernel']`` selects the ``push_gather`` fast path.
    """
    m = int(item["m"])
    local = ctx.local_out(m)
    degs = local.degrees()
    frontier = shared["frontier"]
    cand = frontier[degs[frontier] > 0]
    owners = ctx.master_of[cand]
    out = {
        "m": m,
        "vertices": int(cand.size),
        "owners": owners[owners != m],
        "kernel": None,
        "seconds": 0.0,
    }
    push_signal = shared["signal"]
    if shared["use_kernel"]:
        spec = ctx.push_spec(push_signal)
        t0 = perf_counter() if shared["timed"] else 0.0
        batch = get_kernel(spec.kind)(spec, ctx.state, local, cand)
        out["seconds"] = perf_counter() - t0 if shared["timed"] else 0.0
        out.update(kernel=spec.kind, edges=batch.edges,
                   targets=batch.targets, values=batch.values)
        return out
    state = ctx.state
    targets: List[int] = []
    values: list = []
    for u in cand.tolist():
        for v in local.neighbors(u).tolist():
            value = push_signal(u, v, state)
            if value is not None:
                targets.append(v)
                values.append(value)
    out.update(edges=int(degs[cand].sum()),
               targets=np.asarray(targets, dtype=np.int64), values=values)
    return out
