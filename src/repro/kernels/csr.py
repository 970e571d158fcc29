"""Vectorized CSR kernels for the classified UDF shapes.

Each kernel replays what the per-vertex interpreter would have done for
a whole batch of destination vertices at once, operating on flattened
CSR neighbor segments.  Two invariants are load-bearing:

* **Bit-identical results.** Emit masks, emitted values, and carried
  values must equal the interpreter's, including float semantics: the
  ``full_scan_sum`` kernel therefore accumulates round-by-round in
  segment order (left-to-right, exactly the interpreter's ``+=``
  sequence) instead of using ``np.add.reduceat``, whose pairwise
  summation would round differently.  Min folds and boolean predicates
  are order-independent, so those use ``reduceat`` directly.
* **Bit-identical counters.** ``KernelBatch.edges`` reports how many
  neighbors the interpreter would have *scanned* — up to and including
  the breaking neighbor — so the engines' edge/byte accounting does not
  change when the fast path is on.

All kernels accept ``carried_in=(present, values)`` to restore
loop-carried state forwarded by the circulant schedule; ``values``
arrive as float64 (the :class:`~repro.engine.dep.DepStore` wire type),
matching the interpreter's restored-value dtype behavior.

Aliasing contract with the process executor: under the process backend
the :class:`~repro.engine.state.StateStore` arrays a kernel reads are
*adopted* shared-memory views aliased between the parent and every
worker.  Kernels (and the tasks that call them) must treat them as
read-only — all state mutation happens in the parent's merge step via
the store's own arrays (``s.field[...] = ...``), which writes through
to the shared pages in place.  Kernels never copy state arrays, so the
fast path operates directly on the arena views with no per-map
publication.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.analysis.kernelspec import (
    COUNT_TO_K_BREAK,
    FIRST_MATCH_BREAK,
    FULL_SCAN_MIN,
    FULL_SCAN_SUM,
    PUSH_GATHER,
    KernelSpec,
)
from repro.kernels.registry import KernelBatch, PushBatch, register_kernel

__all__ = [
    "first_match_break_kernel",
    "count_to_k_break_kernel",
    "full_scan_sum_kernel",
    "full_scan_min_kernel",
    "push_gather_kernel",
]

CarriedIn = Optional[Tuple[np.ndarray, np.ndarray]]


def _segments(local, vertices: np.ndarray):
    """Flatten the CSR neighbor segments of ``vertices``.

    Returns ``(lens, seg_start, flat, pos)``: per-vertex segment
    lengths, each segment's offset into the flat arrays, the
    concatenated neighbor ids, and each flat element's position within
    its segment.  Callers guarantee every vertex has nonzero degree.
    """
    indptr = local.indptr
    starts = indptr[vertices].astype(np.int64)
    lens = (indptr[vertices + 1] - indptr[vertices]).astype(np.int64)
    total = int(lens.sum())
    seg_start = np.zeros(vertices.shape[0], dtype=np.int64)
    np.cumsum(lens[:-1], out=seg_start[1:])
    flat_index = np.repeat(starts - seg_start, lens) + np.arange(
        total, dtype=np.int64
    )
    flat = local.indices[flat_index].astype(np.int64, copy=False)
    pos = np.arange(total, dtype=np.int64) - np.repeat(seg_start, lens)
    return lens, seg_start, flat, pos


def _flat_eval(fn, state, u, v, shape, as_bool: bool = False) -> np.ndarray:
    """Evaluate a compiled expression and broadcast it to ``shape``.

    ``as_bool`` converts with NumPy truthiness (nonzero → True), the
    vector analogue of the interpreter's ``if <expr>:``.
    """
    out = np.asarray(fn(state, u, v))
    if as_bool:
        out = out.astype(bool, copy=False)
    return np.broadcast_to(out, shape)


def _per_vertex_eval(fn, state, vertices: np.ndarray) -> np.ndarray:
    """Evaluate a loop-invariant expression once per destination vertex."""
    out = np.asarray(fn(state, None, vertices))
    return np.broadcast_to(out, vertices.shape)


def _empty_batch() -> KernelBatch:
    zero = np.zeros(0, dtype=np.int64)
    return KernelBatch(
        edges=zero,
        emit_mask=np.zeros(0, dtype=bool),
        values=zero,
        broke=np.zeros(0, dtype=bool),
        carried=np.zeros(0, dtype=np.float64),
    )


@register_kernel(FIRST_MATCH_BREAK)
def first_match_break_kernel(
    spec: KernelSpec, state, local, vertices, carried_in: CarriedIn = None
) -> KernelBatch:
    """Per-segment first match: emit once at the first predicate hit.

    The first hit is a masked minimum over within-segment positions
    (``np.minimum.reduceat`` with the segment length as the no-match
    sentinel) — the "masked argmax over ``in_indices`` slices" plan.
    No loop-carried data: the only dependency is the break bit itself.
    """
    if vertices.size == 0:
        return _empty_batch()
    lens, seg_start, flat, pos = _segments(local, vertices)
    v_rep = np.repeat(vertices, lens)
    pred = _flat_eval(
        spec.exprs["predicate"], state, flat, v_rep, flat.shape, as_bool=True
    )
    sentinel = np.repeat(lens, lens)
    first = np.minimum.reduceat(np.where(pred, pos, sentinel), seg_start)
    matched = first < lens
    edges = np.where(matched, first + 1, lens)
    hit = flat[seg_start + np.minimum(first, lens - 1)]
    values = np.array(
        _flat_eval(spec.exprs["emit"], state, hit, vertices, vertices.shape)
    )
    return KernelBatch(
        edges=edges, emit_mask=matched.copy(), values=values, broke=matched
    )


@register_kernel(COUNT_TO_K_BREAK)
def count_to_k_break_kernel(
    spec: KernelSpec, state, local, vertices, carried_in: CarriedIn = None
) -> KernelBatch:
    """Running predicate count saturating at a threshold.

    A within-segment cumulative sum of predicate hits locates the first
    position where the (restored) count reaches the threshold; edges
    scanned and the final count follow from that position.
    """
    if vertices.size == 0:
        return _empty_batch()
    lens, seg_start, flat, pos = _segments(local, vertices)
    v_rep = np.repeat(vertices, lens)
    pred = _flat_eval(
        spec.exprs["predicate"], state, flat, v_rep, flat.shape, as_bool=True
    )
    init = _per_vertex_eval(spec.exprs["init"], state, vertices)
    if carried_in is not None and bool(carried_in[0].any()):
        present, restored = carried_in
        start = init.astype(np.float64).copy()
        start[present] = restored[present]
    else:
        start = np.array(init, copy=True)

    inc = pred.astype(start.dtype if start.dtype.kind == "f" else np.int64)
    running = np.cumsum(inc)
    running -= np.repeat(running[seg_start] - inc[seg_start], lens)
    running = running + np.repeat(start, lens)

    threshold = _per_vertex_eval(spec.exprs["threshold"], state, vertices)
    sat = pred & (running >= np.repeat(threshold, lens))
    sentinel = np.repeat(lens, lens)
    first = np.minimum.reduceat(np.where(sat, pos, sentinel), seg_start)
    broke = first < lens
    edges = np.where(broke, first + 1, lens)
    last = seg_start + np.where(broke, np.minimum(first, lens - 1), lens - 1)
    final = running[last]
    emit_mask = final > start
    values = final - start
    return KernelBatch(
        edges=edges,
        emit_mask=emit_mask,
        values=values,
        broke=broke,
        carried=final.astype(np.float64, copy=False),
    )


@register_kernel(FULL_SCAN_SUM)
def full_scan_sum_kernel(
    spec: KernelSpec, state, local, vertices, carried_in: CarriedIn = None
) -> KernelBatch:
    """Full-scan sum fold, accumulated in the interpreter's add order.

    Segments are sorted by length (descending, stable) so each round
    adds the r-th term of every still-active segment with one slice —
    left-to-right sequential addition per segment, hence bit-identical
    float rounding versus the interpreter, unlike pairwise ``reduceat``.
    """
    if vertices.size == 0:
        return _empty_batch()
    lens, seg_start, flat, _ = _segments(local, vertices)
    v_rep = np.repeat(vertices, lens)
    term = _flat_eval(spec.exprs["term"], state, flat, v_rep, flat.shape)
    init = _per_vertex_eval(spec.exprs["init"], state, vertices)
    if carried_in is not None and bool(carried_in[0].any()):
        present, restored = carried_in
        start = init.astype(np.float64).copy()
        start[present] = restored[present]
    else:
        start = np.array(init, copy=True)

    order = np.argsort(-lens, kind="stable")
    lens_sorted = lens[order]
    seg_sorted = seg_start[order]
    totals_sorted = start[order].astype(
        np.result_type(start.dtype, term.dtype), copy=True
    )
    lens_ascending = lens_sorted[::-1]
    for r in range(int(lens_sorted[0])):
        active = lens_sorted.size - int(
            np.searchsorted(lens_ascending, r, side="right")
        )
        totals_sorted[:active] = (
            totals_sorted[:active] + term[seg_sorted[:active] + r]
        )
    totals = np.empty_like(totals_sorted)
    totals[order] = totals_sorted

    emit_mask = totals > start
    values = totals - start
    return KernelBatch(
        edges=lens,
        emit_mask=emit_mask,
        values=values,
        broke=None,
        carried=totals.astype(np.float64, copy=False),
    )


@register_kernel(FULL_SCAN_MIN)
def full_scan_min_kernel(
    spec: KernelSpec, state, local, vertices, carried_in: CarriedIn = None
) -> KernelBatch:
    """Full-scan minimum fold (order-independent, so ``reduceat`` is safe)."""
    if vertices.size == 0:
        return _empty_batch()
    lens, seg_start, flat, _ = _segments(local, vertices)
    v_rep = np.repeat(vertices, lens)
    term = _flat_eval(spec.exprs["term"], state, flat, v_rep, flat.shape)
    init = _per_vertex_eval(spec.exprs["init"], state, vertices)
    if carried_in is not None and bool(carried_in[0].any()):
        present, restored = carried_in
        start = init.astype(np.float64).copy()
        start[present] = restored[present]
    else:
        start = np.array(init, copy=True)
    best = np.minimum(start, np.minimum.reduceat(term, seg_start))
    emit_mask = best < init
    return KernelBatch(
        edges=lens.copy(),
        emit_mask=emit_mask,
        values=best,
        broke=None,
        carried=best.astype(np.float64, copy=False),
    )


@register_kernel(PUSH_GATHER)
def push_gather_kernel(
    spec: KernelSpec, state, local, frontier: np.ndarray
) -> PushBatch:
    """One machine's push sweep as a segmented gather over ``local_out``.

    Flattens the out-edge segments of ``frontier`` (all with nonzero
    local out-degree), evaluates the ``skip``/``keep`` guard per edge,
    and the pushed value only on the edges that emit — so a value
    expression is never evaluated where the interpreter returned None
    first.  Emissions keep the interpreter's order: frontier vertex
    ascending, then local neighbor order.
    """
    if frontier.size == 0:
        return PushBatch(0, np.zeros(0, dtype=np.int64), np.zeros(0))
    lens, _, flat, _ = _segments(local, frontier)
    u = np.repeat(frontier, lens)
    exprs = spec.exprs
    if "skip" in exprs:
        emit = ~_flat_eval(exprs["skip"], state, u, flat, flat.shape, True)
    elif "keep" in exprs:
        emit = _flat_eval(exprs["keep"], state, u, flat, flat.shape, True)
    else:
        emit = None
    if emit is not None:
        u, flat = u[emit], flat[emit]
    values = np.array(_flat_eval(exprs["value"], state, u, flat, flat.shape))
    return PushBatch(edges=int(lens.sum()), targets=flat, values=values)
