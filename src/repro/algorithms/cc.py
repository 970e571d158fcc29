"""Connected components by label propagation.

A *control* algorithm with no loop-carried dependency: every neighbor
must be examined to compute the local minimum label, so the analyzer
finds nothing to instrument and SympleGraph automatically degenerates
to Gemini's schedule (Section 5.1: "Gemini can be considered as a
special case without dependency communication").  Used by tests to
verify the no-dependency fall-back path end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.base import BaseEngine
from repro.errors import ConvergenceError

__all__ = ["connected_components", "cc_signal", "CCResult"]


def cc_signal(v, nbrs, s, emit):
    """Emit the smallest neighbor label if it beats the current one."""
    best = s.label[v]
    for u in nbrs:
        if s.label[u] < best:
            best = s.label[u]
    if best < s.label[v]:
        # min-fold into an idempotent min-slot: re-delivering the same
        # label is harmless, so the double-count hazard does not apply.
        emit(best)  # repro: noqa[cumulative-emit]


def _min_slot(v, value, s):
    if value < s.label[v]:
        s.label[v] = value
        return True
    return False


@dataclass
class CCResult:
    """Output of a connected-components run."""

    label: np.ndarray
    iterations: int

    @property
    def num_components(self) -> int:
        return int(np.unique(self.label).size)


def connected_components(
    engine: BaseEngine, max_iterations: int | None = None
) -> CCResult:
    """Label propagation to fixpoint on a symmetric graph."""
    graph = engine.graph
    n = graph.num_vertices
    limit = max_iterations if max_iterations is not None else n + 1

    s = engine.new_state()
    s.set("label", np.arange(n, dtype=np.int64))

    active = graph.in_degrees() > 0
    iterations = 0
    while active.any():
        if iterations >= limit:
            raise ConvergenceError("CC exceeded its iteration budget")
        result = engine.pull(
            cc_signal, _min_slot, s, active, update_bytes=8, sync_bytes=8
        )
        iterations += 1
        if not result.any_changed:
            break
        # Only vertices adjacent to a changed label can improve next round.
        active = graph.out_neighbor_mask(result.changed)
        active &= graph.in_degrees() > 0

    return CCResult(label=s.label.copy(), iterations=iterations)
