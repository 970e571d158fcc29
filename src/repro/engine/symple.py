"""SympleGraph engine: circulant scheduling + dependency propagation.

The paper's core runtime (Section 5).  A dense pull iteration is split
into ``p`` steps.  In step ``s`` machine ``m`` processes the in-edges it
stores whose destination masters live on machine ``(m + s + 1) % p`` —
the subgraph ``[m, (m+s+1)%p]`` in Figure 7's matrix view.  Every
destination partition is therefore scanned by exactly one machine per
step, and across steps its in-edges are processed *sequentially* in a
fixed machine order, finishing on the master's own machine.

At each step boundary a machine sends the dependency state of the
partition it just processed to the machine on its left (the one that
will process that partition next): the control bitmap plus any carried
data (K-core's running count, sampling's prefix sum).  A vertex whose
bit is set is skipped outright by all following machines — eliminating
the redundant computation and update communication that Gemini incurs.

Optimizations (Sections 5.2-5.3), all individually toggleable for the
Figure 11 ablation:

* ``differentiated``: only vertices with in-degree >= threshold take
  part in dependency propagation; low-degree vertices fall back to the
  Gemini schedule (their savings wouldn't pay for the messages).
* ``double_buffering``: each step's dependency ships in two halves so
  transfer overlaps compute — a timing-model effect (bytes unchanged).
* ``schedule="naive"``: enforce sequentiality without circulant
  scheduling (one machine active at a time) — the strawman circulant
  scheduling exists to beat.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.engine.base import (
    BaseEngine,
    CountingNeighbors,
    PullResult,
    SignalLike,
    _UpdateBuffer,
    _flatten_emissions,
)
from repro.engine.dep import DepStore
from repro.engine.state import StateStore
from repro.exec import work
from repro.errors import EngineError
from repro.partition.base import Partition
from repro.runtime.bitmap import Bitmap
from repro.runtime.cost_model import SYMPLE_COST, CostModel
from repro.runtime.counters import IterationRecord, StepRecord

__all__ = ["SympleGraphEngine", "SympleOptions", "circulant_partition", "circulant_machine_order"]

# The paper selects its production threshold (32) by sweeping powers
# of two on 1-4 billion-edge graphs (Section 6).  At this repo's ~1000x
# smaller graphs the same sweep (benchmarks/bench_ablation_threshold)
# selects a proportionally smaller value.
DEFAULT_DEGREE_THRESHOLD = 4


@dataclass
class SympleOptions:
    """Feature switches for the SympleGraph runtime.

    ``use_kernels`` enables the batched NumPy fast path
    (:mod:`repro.kernels`) for UDFs the analyzer classified into a
    vectorizable shape; results, counters, and traffic are bit-identical
    either way, so this is purely a wall-clock switch (and the escape
    hatch if a kernel is ever suspected of disagreeing).

    ``trace`` streams a structured JSONL event trace of every phase,
    circulant step, dependency hand-off, and kernel batch to the given
    path (see :mod:`repro.obs`); ``None`` — the default — disables
    tracing entirely, with no instrumentation overhead.

    Dependency-loss injection (the old ``dep_loss_rate``/
    ``dep_loss_seed`` knobs) lives in the fault subsystem: build
    ``FaultPlan.dep_loss(rate, seed)`` and attach it with
    :meth:`BaseEngine.attach_faults` or ``RunConfig(faults=...)``; the
    plan's single seeded generator drives every fault draw.
    """

    degree_threshold: int = DEFAULT_DEGREE_THRESHOLD
    differentiated: bool = True
    double_buffering: bool = True
    schedule: str = "circulant"
    use_kernels: bool = True
    trace: Optional[str] = None
    # removed in this release (deprecated since the fault subsystem
    # landed); InitVars so passing them raises a pointed error instead
    # of a bare TypeError
    dep_loss_rate: InitVar[Optional[float]] = None
    dep_loss_seed: InitVar[Optional[int]] = None

    def __post_init__(self, dep_loss_rate=None, dep_loss_seed=None) -> None:
        if dep_loss_rate is not None or dep_loss_seed is not None:
            raise EngineError(
                "SympleOptions.dep_loss_rate/dep_loss_seed were removed; "
                "build FaultPlan.dep_loss(rate, seed) and attach it via "
                "engine.attach_faults(FaultController(plan, num_machines)) "
                "or RunConfig(faults=plan)"
            )
        if self.schedule not in ("circulant", "naive"):
            raise EngineError(f"unknown schedule {self.schedule!r}")
        if self.degree_threshold < 0:
            raise EngineError("degree_threshold must be non-negative")


def circulant_partition(machine: int, step: int, num_machines: int) -> int:
    """Destination partition machine ``machine`` processes at ``step``."""
    return (machine + step + 1) % num_machines


def circulant_machine_order(partition_id: int, num_machines: int) -> List[int]:
    """Machines that process ``partition_id``'s in-edges, in step order.

    The sequence ends with the partition's own (master) machine, so the
    final dependency state lands where the masters live.
    """
    return [
        (partition_id - 1 - s) % num_machines for s in range(num_machines)
    ]


class SympleGraphEngine(BaseEngine):
    """Distributed engine with precise loop-carried dependency."""

    kind = "symple"
    cost_kind = "symple"
    supports_dependency = True
    supports_async = True

    def __init__(
        self,
        partition: Partition,
        options: Optional[SympleOptions] = None,
        cost_model: CostModel = SYMPLE_COST,
        obs=None,
        executor=None,
        verify: str = "off",
    ) -> None:
        self.options = options or SympleOptions()
        super().__init__(
            partition, cost_model, use_kernels=self.options.use_kernels,
            obs=obs, executor=executor, verify=verify,
        )
        if self.obs is None and self.options.trace is not None:
            self.attach_observer(self.options.trace)
        if self.options.differentiated:
            self._high_mask = (
                partition.graph.in_degrees() >= self.options.degree_threshold
            )
        else:
            self._high_mask = np.ones(partition.graph.num_vertices, dtype=bool)

    # -- pull ---------------------------------------------------------------

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
        """Dense pull: circulant scheduling with dependency propagation
        when the signal carries one, Gemini-style parallel otherwise."""
        active_idx = self._check_active(active)
        analyzed = self.ensure_analyzed(signal)
        if not analyzed.has_dependency or self.num_machines == 1:
            # No loop-carried dependency: Gemini is the special case of
            # SympleGraph without dependency communication (Section 5.1).
            return self._pull_parallel(
                analyzed, slot, state, active_idx, update_bytes, sync_bytes
            )
        return self._pull_circulant(
            analyzed,
            slot,
            state,
            active_idx,
            update_bytes,
            sync_bytes,
            dep_data_bytes,
            allow_differentiated,
            share_dep_data,
        )

    def _pull_circulant(
        self,
        analyzed,
        slot: Callable,
        state: StateStore,
        active_idx: np.ndarray,
        update_bytes: int,
        sync_bytes: int,
        dep_data_bytes: int,
        allow_differentiated: bool,
        share_dep_data: bool,
    ) -> PullResult:
        p = self.num_machines
        phase = self._phase_begin("pull")
        master_of = self.partition.master_of
        dep_store = DepStore(
            self.graph.num_vertices,
            analyzed.info.carried_vars,
            share_data=share_dep_data,
        )
        has_data = bool(analyzed.info.carried_vars) and share_dep_data
        instrumented = analyzed.instrumented
        original = analyzed.original
        if allow_differentiated:
            high_mask = self._high_mask
        else:
            high_mask = np.ones(self.graph.num_vertices, dtype=bool)

        # Dependency-loss draws come from the attached FaultController's
        # single plan-seeded stream.  When active, the draw order is a
        # per-vertex observable, so the phase stays on the in-engine
        # serial path regardless of the executor backend (see below).
        controller = self._fault_controller
        if controller is not None and controller.dep_loss_rate > 0.0:
            dep_lost = controller.dep_lost
        else:
            dep_lost = None

        plan = self._kernel_plan(analyzed, state)
        if (
            plan is not None
            and controller is not None
            and controller.dep_loss_rate > 0.0
            and controller.delivery_faults_active
        ):
            # Dep-loss draws and delivery-fault draws come from the
            # plan's single generator, interleaved per vertex by the
            # interpreter; batching would reorder them, so a combined
            # schedule keeps the per-vertex path.
            plan = None

        # Loop-invariant hoisting: local degree arrays, the
        # per-partition candidate split, and each partition's
        # circulated-vertex count are step-independent — computed once
        # per pull (O(p * |active|)) instead of once per
        # (step, machine) pair (O(p^2 * |active|)).
        machine_degs = [
            self.partition.local_in(m).degrees() for m in range(p)
        ]
        by_master = [active_idx[master_of[active_idx] == j] for j in range(p)]
        part_high_size = [
            int(np.count_nonzero(high_mask[part])) for part in by_master
        ]
        dep_payload_bytes = (
            dep_data_bytes * len(analyzed.info.carried_vars)
            if has_data
            else 0
        )

        record = IterationRecord(mode="pull")
        buffer = _UpdateBuffer()
        steps: List[StepRecord] = []
        total_edges = 0
        # Dependency-loss draws interleave per vertex with the plan's
        # single generator, so only a draw-free phase may fan its
        # per-machine batches out to the executor; a faulted phase runs
        # the in-engine serial loop below (which the serial backend
        # matches bit for bit anyway).
        route = dep_lost is None

        for s in range(p):
            if s > 0 and controller is not None:
                # A mid-step crash severs the dependency circulation:
                # the whole phase aborts and recovery restarts it from
                # the step-0 boundary with blanked bitmaps (Section 5.1
                # guarantees correctness under incomplete information).
                controller.check_crash(phase, s)
            step = self._make_step(phase)
            if self.obs is not None:
                self.obs.step_begin(s)
            is_last = s == p - 1
            if route:
                # one (machine -> destination partition) batch per task
                batches = []
                for m in range(p):
                    j = circulant_partition(m, s, p)
                    part = by_master[j]
                    batches.append((m, j, part[machine_degs[m][part] > 0]))
                if plan is not None:
                    self._circulant_kernel_step(
                        plan, analyzed, state, batches, high_mask,
                        dep_store, has_data, update_bytes, step, buffer,
                        s, part_high_size, dep_payload_bytes,
                    )
                else:
                    self._circulant_interp_step(
                        analyzed, state, batches, high_mask, dep_store,
                        share_dep_data, is_last, update_bytes, step,
                        buffer, s, part_high_size, dep_payload_bytes,
                    )
                steps.append(step)
                total_edges += step.total_edges()
                if self.obs is not None:
                    self.obs.step_end(s, step)
                continue
            for m in range(p):
                j = circulant_partition(m, s, p)
                local = self.partition.local_in(m)
                part = by_master[j]
                cand = part[machine_degs[m][part] > 0]
                if plan is not None:
                    self._circulant_kernel_batch(
                        plan,
                        state,
                        local,
                        cand,
                        high_mask,
                        dep_store,
                        has_data,
                        dep_lost,
                        m,
                        j,
                        update_bytes,
                        step,
                        buffer,
                    )
                    self._circulant_handoff(
                        s, m, part_high_size[j], dep_payload_bytes, step
                    )
                    continue
                emit_v: List[int] = []
                emit_values: List[list] = []
                interp_edges = 0
                for v in cand:
                    v = int(v)
                    emitted: list = []
                    if high_mask[v]:
                        handle = dep_store.handle(v, is_last=is_last)
                        if dep_store.skip[v]:
                            # Failure injection: with probability
                            # dep_loss_rate this machine started before
                            # the control bit arrived and processes the
                            # vertex blind — losing savings, never
                            # correctness.  Only control-only UDFs are
                            # eligible (a lost *data* dependency is not
                            # an incomplete-information case).
                            lost = (
                                dep_lost is not None
                                and not has_data
                                and dep_lost()
                            )
                            if not lost:
                                continue
                            handle = dep_store.blind_handle(
                                v, is_last=is_last
                            )
                        nbrs = CountingNeighbors(local.neighbors(v))
                        instrumented(
                            v,
                            nbrs,
                            state,
                            emitted.append,
                            handle,
                        )
                        step.high_edges[m] += nbrs.count
                        step.high_vertices[m] += 1
                    else:
                        nbrs = CountingNeighbors(local.neighbors(v))
                        original(v, nbrs, state, emitted.append)
                        step.low_edges[m] += nbrs.count
                        step.low_vertices[m] += 1
                    interp_edges += nbrs.count
                    if not emitted:
                        continue
                    # sent per vertex: a delivery hook's draws
                    # interleave with the dep-loss draws above
                    master = int(master_of[v])
                    if master != m:
                        nbytes = update_bytes * len(emitted)
                        self.network.send(m, master, "update", nbytes)
                        step.update_bytes[m] += nbytes
                    emit_v.append(v)
                    emit_values.append(emitted)
                if self.obs is not None:
                    self.obs.interp_edges("pull", interp_edges)
                buffer.add(*_flatten_emissions(emit_v, emit_values))
                self._circulant_handoff(
                    s, m, part_high_size[j], dep_payload_bytes, step
                )
            steps.append(step)
            total_edges += step.total_edges()
            if self.obs is not None:
                self.obs.step_end(s, step)

        changed, applied = self._apply_updates(buffer, slot, state)
        record.steps = steps
        self._count_sync(changed, sync_bytes, record)
        self.counters.add_iteration(record)
        if self.obs is not None:
            self.obs.phase_end(record)
        self.counters.add_edges(total_edges)
        self.counters.add_vertices(
            int(
                sum(
                    st.high_vertices.sum() + st.low_vertices.sum()
                    for st in steps
                )
            )
        )
        return PullResult(changed, applied, total_edges)

    def _circulant_handoff(
        self,
        s: int,
        m: int,
        part_high: int,
        dep_payload_bytes: int,
        step: StepRecord,
    ) -> None:
        """Dependency hand-off to the machine on the left (skipped
        after the final step: the master now holds the complete state
        locally).

        Control bits travel as a packed bitmap; carried data travels as
        the SoA array slice for every circulated vertex (Section 6's
        layout) — this is why sampling's dependency traffic is large
        while BFS/MIS pay one bit per vertex.
        """
        if s >= self.num_machines - 1 or part_high == 0:
            return
        nbytes = Bitmap.wire_bytes(part_high) + part_high * dep_payload_bytes
        left = (m - 1) % self.num_machines
        self.network.send(m, left, "dep", nbytes)
        step.dep_bytes[m] += nbytes
        if self.obs is not None:
            self.obs.dep_transfer(m, left, nbytes)

    def _circulant_kernel_batch(
        self,
        plan,
        state: StateStore,
        local,
        cand: np.ndarray,
        high_mask: np.ndarray,
        dep_store: DepStore,
        has_data: bool,
        dep_lost,
        m: int,
        j: int,
        update_bytes: int,
        step: StepRecord,
        buffer: _UpdateBuffer,
    ) -> None:
        """One (step, machine) circulant batch on the kernel fast path.

        Replays the interpreter exactly: skip-bit filtering (with
        per-vertex dependency-loss draws in ascending vertex order),
        restored carried data for the high-degree batch, dep-store
        write-back of break bits and final carried values, separate
        high/low metering, and emissions merged back into ascending
        vertex order before buffering/sending.
        """
        spec, kernel = plan
        high_sel = high_mask[cand]
        high = cand[high_sel]
        low = cand[~high_sel]

        run_mask = ~dep_store.skip[high]
        blind = np.zeros(high.size, dtype=bool)
        if dep_lost is not None and not has_data:
            # One draw per skipped vertex, ascending — the same
            # sequence of generator calls the interpreter makes.
            for i in np.flatnonzero(~run_mask):
                if dep_lost():
                    blind[i] = True
            run_mask |= blind
        run = high[run_mask]
        blind_run = blind[run_mask]

        carried_name = spec.carried_vars[0] if spec.carried_vars else None
        carried_in = None
        if has_data and carried_name is not None:
            present = dep_store.present[carried_name][run] & ~blind_run
            carried_in = (present, dep_store.data[carried_name][run])
        batch = self._run_kernel(
            m, kernel, spec, state, local, run, carried_in=carried_in
        )
        step.high_edges[m] += int(batch.edges.sum())
        step.high_vertices[m] += int(run.size)
        if batch.broke is not None:
            dep_store.skip[run[batch.broke]] = True
        if has_data and carried_name is not None and run.size:
            dep_store.data[carried_name][run] = batch.carried
            dep_store.present[carried_name][run] = True

        low_batch = self._run_kernel(m, kernel, spec, state, local, low)
        step.low_edges[m] += int(low_batch.edges.sum())
        step.low_vertices[m] += int(low.size)

        emit_v = np.concatenate(
            [run[batch.emit_mask], low[low_batch.emit_mask]]
        )
        if emit_v.size == 0:
            return
        emit_vals = np.concatenate(
            [
                batch.values[batch.emit_mask],
                low_batch.values[low_batch.emit_mask],
            ]
        )
        self._send_circulant_updates(
            m, j, emit_v, emit_vals, update_bytes, step, buffer
        )

    def _send_circulant_updates(
        self,
        m: int,
        j: int,
        emit_v: np.ndarray,
        emit_vals: np.ndarray,
        update_bytes: int,
        step: StepRecord,
        buffer: _UpdateBuffer,
    ) -> None:
        """Meter and buffer one kernel batch's emissions, merged back
        into ascending vertex order; every destination lives on
        partition ``j``, so a remote batch is one grouped send when
        :meth:`_grouped_sends_ok` allows."""
        order = np.argsort(emit_v)
        emit_v = emit_v[order]
        emit_vals = emit_vals[order]
        if j != m:
            count = int(emit_v.size)
            if self._grouped_sends_ok():
                self.network.send(
                    m, j, "update", update_bytes * count, messages=count
                )
            else:
                for _ in range(count):
                    self.network.send(m, j, "update", update_bytes)
            step.update_bytes[m] += update_bytes * count
        buffer.add(emit_v, emit_vals)

    def _circulant_kernel_step(
        self,
        plan,
        analyzed,
        state: StateStore,
        batches,
        high_mask: np.ndarray,
        dep_store: DepStore,
        has_data: bool,
        update_bytes: int,
        step: StepRecord,
        buffer: _UpdateBuffer,
        s: int,
        part_high_size,
        dep_payload_bytes: int,
    ) -> None:
        """One circulant step on the kernel fast path, via the executor.

        The parent resolves the dependency store up front (skip-bit
        filtering, restored carried data), fans the per-machine kernel
        batches out through ``map_machines``, then replays the serial
        loop's side effects machine by machine in ascending order —
        dep-store write-back, metering, obs events, sends, buffering,
        and the dependency hand-off — so every backend is bit-identical
        to the old in-engine loop.
        """
        spec, _ = plan
        carried_name = spec.carried_vars[0] if spec.carried_vars else None
        items = []
        runs = []
        lows = []
        for m, j, cand in batches:
            high_sel = high_mask[cand]
            high = cand[high_sel]
            low = cand[~high_sel]
            run = high[~dep_store.skip[high]]
            carried_in = None
            if has_data and carried_name is not None:
                carried_in = (
                    dep_store.present[carried_name][run].copy(),
                    dep_store.data[carried_name][run],
                )
            items.append({"m": m, "run": run, "carried": carried_in,
                          "low": low})
            runs.append(run)
            lows.append(low)

        shared = {"signal": analyzed, "timed": self.obs is not None}
        results = self._map_machines(
            work.circulant_kernel_task, shared, items, state, step=step
        )
        for (m, j, _), run, low, res in zip(batches, runs, lows, results):
            if self.obs is not None:
                self.obs.kernel_batch(
                    m, res["kind"], int(run.size), res["high_edges"],
                    res["high_seconds"],
                )
            step.high_edges[m] += res["high_edges"]
            step.high_vertices[m] += int(run.size)
            if res["broke"] is not None:
                dep_store.skip[run[res["broke"]]] = True
            if has_data and carried_name is not None and run.size:
                dep_store.data[carried_name][run] = res["carried"]
                dep_store.present[carried_name][run] = True
            if self.obs is not None:
                self.obs.kernel_batch(
                    m, res["kind"], int(low.size), res["low_edges"],
                    res["low_seconds"],
                )
            step.low_edges[m] += res["low_edges"]
            step.low_vertices[m] += int(low.size)

            emit_v = np.concatenate(
                [run[res["high_emit_mask"]], low[res["low_emit_mask"]]]
            )
            if emit_v.size:
                emit_vals = np.concatenate(
                    [
                        res["high_values"][res["high_emit_mask"]],
                        res["low_values"][res["low_emit_mask"]],
                    ]
                )
                self._send_circulant_updates(
                    m, j, emit_v, emit_vals, update_bytes, step, buffer
                )
            self._circulant_handoff(
                s, m, part_high_size[j], dep_payload_bytes, step
            )

    def _circulant_interp_step(
        self,
        analyzed,
        state: StateStore,
        batches,
        high_mask: np.ndarray,
        dep_store: DepStore,
        share_dep_data: bool,
        is_last: bool,
        update_bytes: int,
        step: StepRecord,
        buffer: _UpdateBuffer,
        s: int,
        part_high_size,
        dep_payload_bytes: int,
    ) -> None:
        """One circulant step on the per-vertex interpreter, via the
        executor.

        Each task rebuilds a machine-local dependency store seeded with
        this machine's candidate slices (a step's partitions are
        disjoint, so slices never conflict); the parent writes the
        outgoing slices back and replays sends/buffering in the serial
        loop's order.
        """
        items = []
        for m, j, cand in batches:
            high_sel = high_mask[cand]
            items.append({
                "m": m,
                "cand": cand,
                "high_sel": high_sel,
                "skip": dep_store.skip[cand],
                "data": {
                    name: dep_store.data[name][cand]
                    for name in dep_store.data
                },
                "present": {
                    name: dep_store.present[name][cand]
                    for name in dep_store.present
                },
            })
        shared = {
            "signal": analyzed,
            "is_last": is_last,
            "carried_vars": list(analyzed.info.carried_vars),
            "share_dep_data": share_dep_data,
        }
        results = self._map_machines(
            work.circulant_interp_task, shared, items, state, step=step
        )
        for (m, j, cand), item, res in zip(batches, items, results):
            step.high_edges[m] += res["high_edges"]
            step.low_edges[m] += res["low_edges"]
            step.high_vertices[m] += res["high_vertices"]
            step.low_vertices[m] += res["low_vertices"]
            if self.obs is not None:
                self.obs.interp_edges(
                    "pull", res["high_edges"] + res["low_edges"]
                )
            self._send_interp_updates(
                m, res["emit_v"], res["emit_values"], update_bytes, step,
                buffer,
            )
            high = cand[item["high_sel"]]
            dep_store.skip[high] = res["skip_out"]
            for name in dep_store.data:
                dep_store.data[name][high] = res["data_out"][name]
                dep_store.present[name][high] = res["present_out"][name]
            self._circulant_handoff(
                s, m, part_high_size[j], dep_payload_bytes, step
            )

    # -- timing ---------------------------------------------------------------

    def execution_time(self, cost_model: Optional[CostModel] = None) -> float:
        """Simulated time, honoring this engine's schedule/DB options."""
        model = cost_model or self.default_cost
        return model.execution_time(
            self.counters,
            "symple",
            double_buffering=self.options.double_buffering,
            schedule=self.options.schedule,
        )
