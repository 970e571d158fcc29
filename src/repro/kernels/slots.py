"""Slot folds: apply a whole phase's update buffer in a few NumPy passes.

The interpreter applies updates one Python call at a time, in buffer
order, collecting every vertex whose slot returned True (first-success
order).  The kernels here replay that for the three classified slot
grammars (:mod:`repro.analysis.kernelspec`) bit for bit:

* ``slot_sum`` — ``np.add.at``, which is unbuffered and adds in index
  order, so float rounding matches the interpreter's ``+=`` sequence;
* ``slot_min`` — only updates with ``value < x0[v]`` (the state before
  the phase) can ever succeed; among those, the final value is the
  *first* occurrence of the minimum, found with a stable sort.  NaN
  never passes the filter and ``-0.0``/``0.0`` ties keep the earlier
  update, exactly as the strict ``<`` relax does.  Float values into an
  int array also fold: truncation is monotone, so the interpreter's
  chain of truncating writes ends at the truncated minimum;
* ``slot_first`` — the first update per vertex whose guard is open
  wins; every write's right-hand side is evaluated before any write
  lands (the classifier guarantees none reads a written array).

Each kernel returns ``None`` before touching state when a value or
right-hand-side dtype differs from its target array's (the one
exception above aside), so any case where NumPy's scalar assignment
would cast differently from a vector one stays on the interpreter.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.kernelspec import SLOT_FIRST, SLOT_MIN, SLOT_SUM, KernelSpec
from repro.kernels.registry import register_kernel

__all__ = [
    "first_occurrence",
    "slot_sum_kernel",
    "slot_min_kernel",
    "slot_first_kernel",
]

def _unchanged() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


def _first_mask(ids: np.ndarray, bound: int) -> np.ndarray:
    """Mask over positions of ``ids`` (all in ``[0, bound)``): True at
    each id's first appearance — O(len + bound), no sort."""
    size = ids.size
    first = np.full(bound, size, dtype=np.int64)
    np.minimum.at(first, ids, np.arange(size))
    mask = np.zeros(size, dtype=bool)
    mask[first[first < size]] = True
    return mask


def first_occurrence(ids: np.ndarray, bound: int) -> np.ndarray:
    """Distinct ``ids`` (all in ``[0, bound)``) in first-appearance order."""
    return ids[_first_mask(ids, bound)]


def _foldable(values: np.ndarray, target: np.ndarray) -> bool:
    return values.dtype == target.dtype and target.dtype.kind in "iuf"


@register_kernel(SLOT_SUM)
def slot_sum_kernel(
    spec: KernelSpec, state, vertices: np.ndarray, values: np.ndarray
) -> Optional[np.ndarray]:
    """``s.x[v] += value`` for every update, in buffer order."""
    target = getattr(state, spec.params["target"])
    if not _foldable(values, target):
        return None
    np.add.at(target, vertices, values)
    if not spec.params["returns"]:
        return _unchanged()
    return first_occurrence(vertices, state.num_vertices)


@register_kernel(SLOT_MIN)
def slot_min_kernel(
    spec: KernelSpec, state, vertices: np.ndarray, values: np.ndarray
) -> Optional[np.ndarray]:
    """``if value < s.x[v]: s.x[v] = value`` for every update."""
    target = getattr(state, spec.params["target"])
    # a float relax into an int array (a carried value restored as
    # float64) truncates on assignment; the kernel matches that only
    # while every successful value is finite and in range, where the
    # interpreter's scalar cast cannot raise
    truncating = target.dtype.kind == "i" and values.dtype.kind == "f"
    if not (truncating or _foldable(values, target)):
        return None
    hit = values < target[vertices]
    vs, vals = vertices[hit], values[hit]
    if vs.size == 0:
        return _unchanged()
    if truncating:
        info = np.iinfo(target.dtype)
        if not ((vals >= info.min) & (vals < -float(info.min))).all():
            return None
    order = np.argsort(vals, kind="stable")
    order = order[np.argsort(vs[order], kind="stable")]
    sorted_vs = vs[order]
    first = np.ones(sorted_vs.size, dtype=bool)
    first[1:] = sorted_vs[1:] != sorted_vs[:-1]
    target[sorted_vs[first]] = vals[order][first]
    if not spec.params["returns"]:
        return _unchanged()
    return first_occurrence(vs, state.num_vertices)


@register_kernel(SLOT_FIRST)
def slot_first_kernel(
    spec: KernelSpec, state, vertices: np.ndarray, values: np.ndarray
) -> Optional[np.ndarray]:
    """First open update per vertex wins; later ones are no-ops."""
    params = spec.params
    flag = getattr(state, params["flag"])
    if flag.dtype != bool:
        return None
    is_open = flag[vertices] if params["negated"] else ~flag[vertices]
    idx = np.flatnonzero(is_open)
    win = idx[_first_mask(vertices[idx], state.num_vertices)]
    winners = vertices[win]
    won = values[win]
    writes = []
    for name, role in params["writes"]:
        array = getattr(state, name)
        rhs = np.asarray(spec.exprs[role](state, won, winners))
        if rhs.dtype != array.dtype:
            return None
        writes.append((array, rhs))
    for array, rhs in writes:
        array[winners] = rhs
    return winners if params["returns"] else _unchanged()
