"""Kernel registry: kind strings → batched CSR kernel implementations.

The registry decouples *classification* (``repro.analysis.kernelspec``
decides a UDF is, say, a ``first_match_break``) from *execution* (this
package provides a vectorized implementation for that kind).  Engines
look kinds up at pull time; an unknown kind simply means the batch is
interpreted per vertex, so registering a new kernel is purely additive.

A pull kernel is a callable::

    kernel(spec, state, local, vertices, carried_in=None) -> KernelBatch

where ``spec`` is the :class:`~repro.analysis.kernelspec.KernelSpec`,
``state`` the :class:`~repro.engine.state.StateStore`, ``local`` the
:class:`~repro.partition.base.LocalAdjacency` whose CSR slices are
scanned, and ``vertices`` an int64 array of destination vertices (all
with nonzero local degree).  ``carried_in`` optionally supplies
restored loop-carried values as ``(present_mask, values)`` arrays
aligned with ``vertices`` (the circulant dependency hand-off).

The per-edge and per-update kinds have their own signatures:

* ``push_gather``: ``kernel(spec, state, local, frontier) -> PushBatch``
  over the ``local_out`` CSR slices of ``frontier``;
* ``slot_sum``/``slot_min``/``slot_first``: ``kernel(spec, state,
  vertices, values) -> changed | None`` applies a whole update buffer
  in buffer order, returning ``None`` (before writing anything) when
  the value dtypes would cast differently from the interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "KernelBatch",
    "PushBatch",
    "register_kernel",
    "get_kernel",
    "available_kernels",
]


@dataclass
class KernelBatch:
    """Result of one batched kernel invocation.

    All arrays align with the ``vertices`` argument of the kernel call.
    ``edges`` is the number of neighbors each vertex *actually scanned*
    (post-break), matching what ``CountingNeighbors`` would have
    counted; the engines charge their edge counters from it.  ``values``
    is only meaningful where ``emit_mask`` is set.  ``broke`` marks
    vertices whose scan ended in a ``break`` — the loop-carried control
    bit the circulant schedule forwards.  ``carried`` holds the final
    value of the single carried variable (float64, only for kinds that
    carry one), which becomes the dependency *data* hand-off.
    """

    edges: np.ndarray
    emit_mask: np.ndarray
    values: np.ndarray
    broke: Optional[np.ndarray] = None
    carried: Optional[np.ndarray] = None
    extras: Dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class PushBatch:
    """Result of one batched push sweep on one machine.

    ``edges`` counts every out-edge scanned (the interpreter calls the
    push signal once per edge); ``targets``/``values`` are the non-None
    emissions in interpreter order — frontier vertex ascending, then
    local out-neighbor order.
    """

    edges: int
    targets: np.ndarray
    values: np.ndarray


Kernel = Callable[..., object]

_REGISTRY: Dict[str, Kernel] = {}


def register_kernel(kind: str) -> Callable[[Kernel], Kernel]:
    """Class decorator/registration hook binding ``kind`` to a kernel.

    Later registrations override earlier ones, so downstream code can
    swap in alternative implementations (e.g. a numba build) without
    touching the engines.
    """

    def decorate(fn: Kernel) -> Kernel:
        _REGISTRY[kind] = fn
        return fn

    return decorate


def get_kernel(kind: str) -> Optional[Kernel]:
    """The kernel registered for ``kind``, or ``None``."""
    return _REGISTRY.get(kind)


def available_kernels() -> Tuple[str, ...]:
    """Registered kind strings, sorted for stable display."""
    return tuple(sorted(_REGISTRY))
