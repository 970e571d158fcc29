"""Shared engine machinery.

A *distributed engine* executes signal-slot vertex programs over a
:class:`~repro.partition.base.Partition`, metering every neighbor scan
and every remote byte.  Concrete engines differ in how the dense pull
phase is scheduled:

* :class:`~repro.engine.gemini.GeminiEngine` — every machine scans its
  local in-edges independently and in parallel (the BSP baseline);
* :class:`~repro.engine.symple.SympleGraphEngine` — circulant
  scheduling with dependency propagation;
* :class:`~repro.engine.dgalois.DGaloisEngine` — BSP over a vertex-cut
  with Gluon-style reduce+broadcast synchronization.

The sparse push phase and the slot/update/sync protocol are shared.
Slot application is deferred to the end of the phase (bulk-synchronous
visibility): signals never observe same-iteration writes, matching
Definition 2.2 semantics so all engines compute identical results.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.instrument import AnalyzedSignal, instrument_signal
from repro.analysis.kernelspec import KernelSpec, classify_push, classify_slot
from repro.engine.state import StateStore
from repro.exec import work
from repro.errors import EngineError
from repro.kernels import get_kernel
from repro.kernels.slots import first_occurrence
from repro.obs.hooks import ObsHub
from repro.partition.base import Partition
from repro.runtime.cost_model import CostModel
from repro.runtime.counters import Counters, IterationRecord, StepRecord
from repro.runtime.network import SimulatedNetwork

__all__ = [
    "CountingNeighbors",
    "PullResult",
    "PushResult",
    "BaseEngine",
    "SignalLike",
]

SignalLike = Union[Callable, AnalyzedSignal]


class CountingNeighbors:
    """Iterable over a neighbor array that counts examined elements.

    The count includes every neighbor the UDF's loop touched, including
    the one that triggered the break — the paper's "edges traversed"
    metric (Table 5).
    """

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


@dataclass
class PullResult:
    """Outcome of one dense pull phase."""

    changed: np.ndarray
    updates_applied: int
    edges_traversed: int

    @property
    def any_changed(self) -> bool:
        return self.changed.size > 0


@dataclass
class PushResult:
    """Outcome of one sparse push phase."""

    changed: np.ndarray
    updates_applied: int
    edges_traversed: int

    @property
    def any_changed(self) -> bool:
        return self.changed.size > 0


@dataclass
class _UpdateBuffer:
    """Updates collected during a phase, applied bulk-synchronously.

    Holds ``(vertices, values)`` chunks in arrival order: ``vertices``
    an int64 array, ``values`` either an array (kernel emissions) or a
    list of the interpreter's emitted objects, kept as-is so an
    interpreted slot sees exactly the values the signal produced.
    """

    chunks: List[Tuple[np.ndarray, Any]] = field(default_factory=list)
    size: int = 0

    def add(self, vertices: np.ndarray, values: Any) -> None:
        if len(vertices):
            self.chunks.append((vertices, values))
            self.size += len(vertices)

    def arrays(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The whole buffer as ``(vertices, values)`` arrays.

        Chunks must share one 1-D numeric dtype, with one exception:
        int64 chunks mix into float64 ones (a circulant pull emits
        restored carried values as float64 beside int64 first-step
        values) when every int is below 2**53 in magnitude, so the
        conversion is exact and preserves every comparison against an
        int64 target.  Anything else returns ``None`` and stays on the
        interpreter, which applies each value with its own scalar
        semantics.
        """
        values = []
        for _, chunk in self.chunks:
            try:
                arr = np.asarray(chunk)
            except (TypeError, ValueError):
                return None
            if arr.ndim != 1 or arr.dtype.kind not in "biuf":
                return None
            values.append(arr)
        dtypes = {arr.dtype for arr in values}
        if len(dtypes) > 1:
            if dtypes != {np.dtype(np.int64), np.dtype(np.float64)}:
                return None
            if any(
                arr.dtype.kind == "i" and (np.abs(arr) >= 2**53).any()
                for arr in values
            ):
                return None
            values = [arr.astype(np.float64, copy=False) for arr in values]
        if len(values) == 1:
            return self.chunks[0][0], values[0]
        return (
            np.concatenate([vs for vs, _ in self.chunks]),
            np.concatenate(values),
        )

    def apply(
        self, slot: Callable, state: StateStore
    ) -> Tuple[np.ndarray, int]:
        """Apply every update through the slot UDF, in buffer order."""
        changed: Dict[int, None] = {}
        for vertices, values in self.chunks:
            for v, value in zip(vertices.tolist(), values):
                if slot(v, value, state):
                    changed[v] = None
        return np.fromiter(changed.keys(), dtype=np.int64), self.size


def _flatten_emissions(emit_v: Sequence[int], emit_values: Sequence[list]):
    """Per-vertex interpreter emission lists as one buffer chunk."""
    counts = [len(values) for values in emit_values]
    vertices = np.repeat(np.asarray(emit_v, dtype=np.int64), counts)
    return vertices, [value for values in emit_values for value in values]


class BaseEngine:
    """Common state and protocol shared by all distributed engines."""

    kind = "abstract"
    cost_kind = "gemini"  # which CostModel pricing function applies
    supports_dependency = False
    supports_async = False  # per-bucket activation (engine.async_mode)
    sync_scope = "in"  # which replica holders receive state broadcasts

    def __init__(
        self,
        partition: Partition,
        default_cost: CostModel,
        use_kernels: bool = True,
        obs: Optional[ObsHub] = None,
        executor=None,
        verify: str = "off",
    ) -> None:
        self.partition = partition
        self.graph = partition.graph
        self.num_machines = partition.num_machines
        self.counters = Counters(self.num_machines)
        self.network = SimulatedNetwork(self.num_machines, self.counters)
        self.default_cost = default_cost
        self.use_kernels = use_kernels
        self.verify = verify
        self._analyzed: Dict[int, AnalyzedSignal] = {}
        # push/slot classifications, per function object (weak: slots
        # are often closures built per call)
        self._push_specs: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self._slot_specs: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self._certified: Dict[int, bool] = {}
        self._fault_controller = None
        self.executor = None
        self.attach_executor(executor)
        self.obs: Optional[ObsHub] = None
        if obs is not None:
            self.attach_observer(obs)

    # -- execution backend --------------------------------------------------

    def attach_executor(self, executor=None) -> None:
        """Install the executor that runs per-machine work units.

        Accepts an :class:`~repro.exec.base.Executor` instance, a kind
        string (``"serial"``/``"thread"``/``"process"``), or ``None``
        for the default serial backend.  The executor is (re)bound to
        this engine's partition; every backend produces bit-identical
        results — see :mod:`repro.exec`.
        """
        from repro.exec import make_executor

        self.executor = make_executor(executor)
        self.executor.bind(self)

    def _map_machines(self, fn, shared, items, state, step=None):
        """Dispatch per-machine tasks, bracketing with ``exec_*`` events.

        ``step`` supplies the straggler slowdown factors the concurrent
        backends turn into real wall-clock stalls; results come back in
        item order for the deterministic merge.
        """
        ex = self.executor
        if self.obs is None:
            return ex.map_machines(
                fn, shared, items, state,
                stalls=step.slowdown if step is not None else None,
            )
        self.obs.exec_map_begin(ex.kind, ex.workers, len(items))
        t0 = perf_counter()
        results = ex.map_machines(
            fn, shared, items, state,
            stalls=step.slowdown if step is not None else None,
        )
        if ex.last_fallback is not None:
            self.obs.exec_fallback(ex.kind, ex.last_fallback)
        for kind, payload in ex.drain_events():
            if kind == "pool_spawn":
                self.obs.exec_pool_spawn(ex.kind, **payload)
            elif kind == "arena_grow":
                self.obs.exec_arena_grow(ex.kind, **payload)
        self.obs.exec_map_end(ex.kind, len(items), perf_counter() - t0)
        return results

    # -- observability ------------------------------------------------------

    def attach_observer(self, obs) -> None:
        """Attach (or with ``None``, detach) an observability hub.

        Accepts an :class:`~repro.obs.hooks.ObsHub`, a bare
        :class:`~repro.obs.tracer.Tracer`, or a trace-file path.  With
        no hub attached the engines pay a single None check per call
        site — the tracing-off overhead contract.
        """
        self.obs = None if obs is None else ObsHub.coerce(obs)
        if self._fault_controller is not None:
            # the controller caches the hub reference at bind time
            self._fault_controller.bind(self)

    # -- fault injection ---------------------------------------------------

    def attach_faults(self, controller) -> None:
        """Install (or with ``None``, remove) a fault controller.

        The controller's delivery hook goes on the network; phase and
        step boundaries consult it for crash events and straggler
        slowdowns.  See :mod:`repro.fault`.
        """
        self._fault_controller = controller
        self.network.delivery_hook = None
        if controller is not None:
            controller.bind(self)

    def _phase_begin(self, mode: str = "pull") -> int:
        """Phase index of the phase about to run; fires crash events."""
        phase = len(self.counters.iterations)
        if self._fault_controller is not None:
            self._fault_controller.check_crash(phase, 0)
        if self.obs is not None:
            self.obs.phase_begin(phase, mode, self.cost_kind,
                                 self.num_machines)
        return phase

    def _obs_commit(self, record: IterationRecord) -> None:
        """Emit step + phase-end events for a committed one-shot record.

        The circulant engine emits step spans live at real step
        boundaries; single-step phases (parallel pull, push) report
        theirs here, right after the record is committed.
        """
        if self.obs is None:
            return
        for s, step in enumerate(record.steps):
            self.obs.step_begin(s)
            self.obs.step_end(s, step)
        self.obs.phase_end(record)

    def _make_step(self, phase: int) -> StepRecord:
        """New step record, with straggler slowdowns applied."""
        step = StepRecord(self.num_machines)
        if self._fault_controller is not None:
            step.slowdown[:] = self._fault_controller.slowdown(phase)
        return step

    # -- state -----------------------------------------------------------

    def new_state(self) -> StateStore:
        """Fresh vertex-state namespace sized for this engine's graph."""
        return StateStore(self.graph.num_vertices)

    # -- UDF analysis -------------------------------------------------------

    def ensure_analyzed(self, signal: SignalLike) -> AnalyzedSignal:
        """Analyze and instrument a signal, caching per function object."""
        if isinstance(signal, AnalyzedSignal):
            return signal
        key = id(signal)
        cached = self._analyzed.get(key)
        if cached is None:
            cached = instrument_signal(signal)
            self._analyzed[key] = cached
        return cached

    @staticmethod
    def _spec_of(cache, classify, fn: Callable) -> Optional[KernelSpec]:
        """``classify(fn)``, cached in ``cache`` per function object."""
        try:
            return cache[fn]
        except KeyError:
            spec = cache[fn] = classify(fn)
            return spec

    # -- phases ---------------------------------------------------------------

    def pull(
        self,
        signal: SignalLike,
        slot: Callable,
        state: StateStore,
        active: np.ndarray,
        update_bytes: int = 8,
        sync_bytes: int = 8,
        dep_data_bytes: int = 4,
        allow_differentiated: bool = True,
        share_dep_data: bool = True,
    ) -> PullResult:
        """Dense pull phase over active destination vertices.

        ``allow_differentiated=False`` forces dependency propagation for
        every vertex regardless of degree: required when the UDF is not
        Gemini-correct on its own (e.g. sampling's prefix sum, which has
        no meaning when machines scan independently).
        """
        raise NotImplementedError

    def push(
        self,
        push_signal: Callable,
        slot: Callable,
        state: StateStore,
        frontier: np.ndarray,
        update_bytes: int = 8,
        sync_bytes: int = 8,
    ) -> PushResult:
        """Sparse push phase from the frontier along out-edges.

        ``push_signal(u, v, state)`` returns an update value or None.
        The paper's optimization targets pull mode; push is identical
        across the distributed engines.
        """
        phase = self._phase_begin("push")
        frontier_idx = self._as_indices(frontier)
        record = IterationRecord(mode="push")
        step = self._make_step(phase)
        buffer = _UpdateBuffer()
        push_msg: Dict[Tuple[int, int], int] = {}
        plan = self._plan(
            push_signal,
            self._spec_of(self._push_specs, classify_push, push_signal),
            state,
        )

        results = self._map_machines(
            work.push_task,
            {
                "signal": push_signal,
                "frontier": frontier_idx,
                "use_kernel": plan is not None,
                "timed": self.obs is not None,
            },
            [{"m": m} for m in range(self.num_machines)],
            state,
            step=step,
        )
        master_of = self.partition.master_of
        for res in results:
            m = res["m"]
            step.high_edges[m] += res["edges"]
            step.high_vertices[m] += res["vertices"]
            if self.obs is not None:
                if res["kernel"] is None:
                    self.obs.interp_edges("push", res["edges"])
                else:
                    self.obs.kernel_batch(
                        m, res["kernel"], res["vertices"], res["edges"],
                        res["seconds"],
                    )
            # frontier state of each remote-mastered u must reach this
            # machine's out-edge replicas (free under outgoing edge-cut)
            self._send_each(res["owners"], m, "push", 8, step)
            targets = res["targets"]
            masters = master_of[targets]
            remote = masters[masters != m]
            if remote.size:
                # one coalesced message per (m, destination master),
                # keyed in first-emission order
                p = self.num_machines
                counts = np.bincount(remote, minlength=p)
                for dst in first_occurrence(remote, p).tolist():
                    push_msg[(m, dst)] = update_bytes * int(counts[dst])
                step.update_bytes[m] += update_bytes * int(remote.size)
            buffer.add(targets, res["values"])

        for (src, dst), nbytes in push_msg.items():
            self.network.send(src, dst, "push", nbytes)

        changed, applied = self._apply_updates(buffer, slot, state)
        record.push_bytes = sum(push_msg.values())
        record.steps = [step]
        self._count_sync(changed, sync_bytes, record)
        self.counters.add_iteration(record)
        self._obs_commit(record)
        self.counters.add_edges(int(step.high_edges.sum()))
        self.counters.add_vertices(int(step.high_vertices.sum()))
        return PushResult(changed, applied, int(step.high_edges.sum()))

    def _send_each(
        self, srcs: np.ndarray, dst: int, tag: str, nbytes: int,
        step: StepRecord,
    ) -> None:
        """One ``nbytes`` message from each of ``srcs`` to ``dst``.

        Sent in order, or grouped per source with ``messages=count``
        when :meth:`_grouped_sends_ok` allows; each sender's
        ``update_bytes`` is charged either way.
        """
        if srcs.size == 0:
            return
        np.add.at(step.update_bytes, srcs, nbytes)
        if self._grouped_sends_ok():
            senders, counts = np.unique(srcs, return_counts=True)
            for src, cnt in zip(senders.tolist(), counts.tolist()):
                self.network.send(src, dst, tag, nbytes * cnt, messages=cnt)
        else:
            for src in srcs.tolist():
                self.network.send(src, dst, tag, nbytes)

    def _apply_updates(
        self, buffer: _UpdateBuffer, slot: Callable, state: StateStore
    ) -> Tuple[np.ndarray, int]:
        """Apply a phase's buffered updates; ``(changed, applied)``.

        A classified slot fold applies the whole buffer in one kernel
        call; an unclassified slot, a dtype the fold would cast
        differently, or ``use_kernels=False`` runs the slot UDF once
        per update (counted as ``repro_interp_edges_total{path="slot"}``).
        """
        if buffer.size == 0:
            return np.zeros(0, dtype=np.int64), 0
        plan = self._plan(
            slot, self._spec_of(self._slot_specs, classify_slot, slot), state
        )
        if plan is not None:
            arrays = buffer.arrays()
            if arrays is not None:
                spec, kernel = plan
                changed = kernel(spec, state, *arrays)
                if changed is not None:
                    return changed, buffer.size
        if self.obs is not None:
            self.obs.interp_edges("slot", buffer.size)
        return buffer.apply(slot, state)

    # -- batched kernel fast path ---------------------------------------------

    def _kernel_plan(self, analyzed: AnalyzedSignal, state: StateStore):
        """``(spec, kernel)`` when a pull signal's fast path applies."""
        return self._plan(analyzed.original, analyzed.kernel, state)

    def _plan(self, fn: Callable, spec, state: StateStore):
        """``(spec, kernel)`` when the batched fast path applies, else None.

        Requires the engine opt-in (``use_kernels``), a classification
        of ``fn`` (a pull signal, push signal, or slot), a certified
        contract when ``verify`` is on, a registered kernel for its
        kind, and a state layout matching the arrays the compiled
        expressions read.  Any miss means the interpreter runs — the
        fallback contract documented in ``docs/API.md``.
        """
        if not self.use_kernels or spec is None:
            return None
        if self.verify != "off" and not self._certify_kernel(fn, spec):
            return None
        kernel = get_kernel(spec.kind)
        if kernel is None or not spec.compatible(state):
            return None
        return spec, kernel

    def _certify_kernel(self, fn: Callable, spec) -> bool:
        """Cross-check a classification before dispatching its kernel.

        With ``verify="warn"`` a refuted contract drops the fast path
        (the interpreter is always correct) and emits a
        ``RuntimeWarning``; ``verify="strict"`` re-raises the
        :class:`~repro.errors.KernelSoundnessError`.  Verdicts cache
        per function for the engine's lifetime.
        """
        key = id(fn)
        cached = self._certified.get(key)
        if cached is not None:
            return cached
        # lazy: certification is a verify-mode-only dependency
        from repro.analysis.ast_analysis import analyze_parsed, parse_signal
        from repro.analysis.verify import certify_spec
        from repro.errors import KernelSoundnessError

        try:
            sig = parse_signal(fn)
            certify_spec(sig, analyze_parsed(sig), spec)
        except KernelSoundnessError as exc:
            if self.verify == "strict":
                raise
            import warnings

            warnings.warn(
                "kernel fast path disabled for "
                f"{getattr(fn, '__name__', '?')}: {exc}",
                RuntimeWarning,
                stacklevel=4,
            )
            self._certified[key] = False
            return False
        self._certified[key] = True
        return True

    def _run_kernel(
        self,
        m: int,
        kernel,
        spec,
        state: StateStore,
        local,
        vertices: np.ndarray,
        carried_in=None,
    ):
        """Invoke one batched kernel, wall-clock profiled when observed.

        The timing call is skipped entirely with no hub attached so the
        fast path's hot loop stays unperturbed (the <2% overhead
        contract of the perf-smoke gate).
        """
        if self.obs is None:
            return kernel(spec, state, local, vertices,
                          carried_in=carried_in)
        t0 = perf_counter()
        batch = kernel(spec, state, local, vertices, carried_in=carried_in)
        self.obs.kernel_batch(
            m, spec.kind, int(vertices.size), int(batch.edges.sum()),
            perf_counter() - t0,
        )
        return batch

    def _grouped_sends_ok(self) -> bool:
        """May per-vertex update messages be coalesced into one send?

        Grouping keeps bytes_by_tag/messages_by_tag identical (via
        ``messages=count``) but would change what a delivery hook or
        the trace log observes per message, so both force the
        one-send-per-vertex path.
        """
        return self.network.delivery_hook is None and not self.network.trace

    def _emit_kernel_batch(
        self,
        m: int,
        vertices: np.ndarray,
        values: np.ndarray,
        update_bytes: int,
        step: StepRecord,
        buffer: "_UpdateBuffer",
    ) -> None:
        """Meter and buffer a batch of emitting vertices on machine ``m``.

        Send order matches the interpreter (ascending vertex within the
        batch); when grouping is allowed, each destination master gets
        one coalesced send carrying the same bytes and message count.
        """
        if vertices.size == 0:
            return
        masters = self.partition.master_of[vertices]
        remote = masters != m
        n_remote = int(remote.sum())
        if n_remote:
            if self._grouped_sends_ok():
                dsts, counts = np.unique(masters[remote], return_counts=True)
                for dst, cnt in zip(dsts, counts):
                    self.network.send(
                        m,
                        int(dst),
                        "update",
                        update_bytes * int(cnt),
                        messages=int(cnt),
                    )
            else:
                for dst in masters[remote]:
                    self.network.send(m, int(dst), "update", update_bytes)
            step.update_bytes[m] += update_bytes * n_remote
        buffer.add(vertices, values)

    def _send_interp_updates(
        self,
        m: int,
        emit_v: Sequence[int],
        emit_values: Sequence[list],
        update_bytes: int,
        step: StepRecord,
        buffer: "_UpdateBuffer",
    ) -> None:
        """Meter and buffer the interpreter's per-vertex emissions on
        machine ``m``: one message per remote-mastered vertex, carrying
        all of that vertex's values."""
        master_of = self.partition.master_of
        for v, values in zip(emit_v, emit_values):
            master = int(master_of[v])
            if master != m:
                nbytes = update_bytes * len(values)
                self.network.send(m, master, "update", nbytes)
                step.update_bytes[m] += nbytes
        buffer.add(*_flatten_emissions(emit_v, emit_values))

    def _pull_parallel(
        self,
        analyzed: AnalyzedSignal,
        slot: Callable,
        state: StateStore,
        active_idx: np.ndarray,
        update_bytes: int,
        sync_bytes: int,
    ) -> PullResult:
        """BSP parallel pull: every machine scans its local in-edges
        of every active vertex with the original (un-instrumented)
        signal — Gemini's schedule, shared by all engines when there is
        no dependency to enforce.  Dispatches whole per-machine batches
        to a classified kernel when one applies."""
        phase = self._phase_begin("pull")
        record = IterationRecord(mode="pull")
        step = self._make_step(phase)
        buffer = _UpdateBuffer()
        plan = self._kernel_plan(analyzed, state)
        results = self._map_machines(
            work.parallel_pull_task,
            {
                "signal": analyzed,
                "active": active_idx,
                "use_kernel": plan is not None,
                "timed": self.obs is not None,
            },
            [{"m": m} for m in range(self.num_machines)],
            state,
            step=step,
        )
        for res in results:
            m = res["m"]
            step.high_edges[m] += res["edges"]
            step.high_vertices[m] += res["vertices"]
            if res["kernel"] is not None:
                if self.obs is not None:
                    self.obs.kernel_batch(
                        m, res["kernel"], res["vertices"], res["edges"],
                        res["seconds"],
                    )
                self._emit_kernel_batch(
                    m,
                    res["emit_v"],
                    res["emit_values"],
                    update_bytes,
                    step,
                    buffer,
                )
                continue
            if self.obs is not None:
                self.obs.interp_edges("pull", res["edges"])
            self._send_interp_updates(
                m, res["emit_v"], res["emit_values"], update_bytes, step,
                buffer,
            )
        changed, applied = self._apply_updates(buffer, slot, state)
        record.steps = [step]
        self._count_sync(changed, sync_bytes, record)
        self.counters.add_iteration(record)
        self._obs_commit(record)
        self.counters.add_edges(int(step.high_edges.sum()))
        self.counters.add_vertices(int(step.high_vertices.sum()))
        return PullResult(changed, applied, int(step.high_edges.sum()))

    # -- protocol helpers -------------------------------------------------------

    @staticmethod
    def _as_indices(vertices: Union[np.ndarray, Sequence[int]]) -> np.ndarray:
        arr = np.asarray(vertices)
        if arr.dtype == bool:
            return np.flatnonzero(arr)
        return np.sort(arr.astype(np.int64))

    def _count_sync(
        self, changed: np.ndarray, sync_bytes: int, record: IterationRecord
    ) -> None:
        """Broadcast changed master state to replica holders.

        Every machine holding edges of a changed vertex needs the new
        flag value before the next phase (e.g. the "visited" filter in
        bottom-up BFS).  Counted per (vertex, holder) pair.
        """
        p = self.num_machines
        if changed.size == 0 or sync_bytes == 0 or p == 1:
            return
        holders = self.partition._has_in[:, changed].copy()
        if self.sync_scope == "both":
            holders |= self.partition._has_out[:, changed]
        masters = self.partition.master_of[changed]
        holders[masters, np.arange(changed.size)] = False
        # counts[dst, src]: entries master src owes receiver dst
        receivers, cols = np.nonzero(holders)
        counts = np.bincount(
            receivers * p + masters[cols], minlength=p * p
        ).reshape(p, p)
        if self._grouped_sends_ok():
            nbytes = counts.T * sync_bytes
            self.network.send_matrix(
                "sync", nbytes, (counts.T > 0).astype(np.int64)
            )
            record.sync_bytes += int(nbytes.sum())
            return
        # one send per (master -> receiver) pair, receiver-major
        total = 0
        for dst, src in zip(*np.nonzero(counts)):
            nbytes = int(counts[dst, src]) * sync_bytes
            self.network.send(int(src), int(dst), "sync", nbytes)
            total += nbytes
        record.sync_bytes += total

    def sync_state(self, vertices: np.ndarray, sync_bytes: int = 4) -> None:
        """Explicitly broadcast changed master state to replica holders.

        For algorithm steps that mutate vertex state outside a slot
        (e.g. MIS finalization marking new members inactive).  Bytes
        attach to the most recent iteration record.
        """
        vertices = self._as_indices(vertices)
        if vertices.size == 0:
            return
        if not self.counters.iterations:
            record = IterationRecord(mode="pull")
            record.steps = [StepRecord(self.num_machines)]
            self.counters.add_iteration(record)
            if self.obs is not None:
                self.obs.implicit_record(self.num_machines)
        target = self.counters.iterations[-1]
        before = target.sync_bytes
        self._count_sync(vertices, sync_bytes, target)
        if self.obs is not None and target.sync_bytes != before:
            # the delta mutates an already-committed record; the trace
            # carries it so reconstruction stays exact
            self.obs.sync_update(
                len(self.counters.iterations) - 1,
                target.sync_bytes - before,
            )

    def _active_candidates(
        self, active_idx: np.ndarray, machine: int
    ) -> np.ndarray:
        """Active vertices with local in-edges on ``machine``."""
        degs = self.partition.local_in(machine).degrees()
        return active_idx[degs[active_idx] > 0]

    # -- results --------------------------------------------------------------

    def execution_time(self, cost_model: Optional[CostModel] = None) -> float:
        """Simulated execution time of everything run so far."""
        model = cost_model or self.default_cost
        return model.execution_time(self.counters, self.cost_kind)

    def reset_metrics(self) -> None:
        """Clear counters and traffic (state/partition untouched)."""
        self.counters = Counters(self.num_machines)
        self.network = SimulatedNetwork(self.num_machines, self.counters)
        if self._fault_controller is not None:
            self._fault_controller.bind(self)

    def _check_active(self, active: np.ndarray) -> np.ndarray:
        arr = np.asarray(active)
        if arr.dtype != bool or arr.shape != (self.graph.num_vertices,):
            raise EngineError(
                "active must be a boolean mask over all vertices"
            )
        return np.flatnonzero(arr)
