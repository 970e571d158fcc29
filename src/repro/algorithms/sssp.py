"""Single-source shortest paths on weighted graphs (Bellman-Ford).

A no-loop-dependency workload exercising the *weighted* graph substrate
(edge weights in the local CSR views).  The pull signal folds all
in-neighbor relaxations; engines schedule it identically, so SSSP also
serves as a regression control that the SympleGraph fall-back path
handles edge weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.base import BaseEngine
from repro.errors import ConvergenceError, GraphError

__all__ = ["sssp", "sssp_multi", "sssp_signal", "SSSPResult"]

INF = np.inf


def sssp_signal(v, nbrs, s, emit):
    """Relax over all in-edges: emit the best achievable distance.

    Weights are looked up by (v, u) pair — machines only scan their
    local slice of v's in-edges, so positional indexing would skew.
    """
    weights = s.wview[v]
    best = s.dist[v]
    for u in nbrs:
        candidate = s.dist[u] + weights.weight_to(u)
        if candidate < best:
            best = candidate
    if best < s.dist[v]:
        # min-fold into an idempotent relax-slot: re-delivering the same
        # distance cannot double-count.
        emit(best)  # repro: noqa[cumulative-emit]


def _relax_slot(v, value, s):
    if value < s.dist[v]:
        s.dist[v] = value
        return True
    return False


@dataclass
class SSSPResult:
    """Output of an SSSP run."""

    dist: np.ndarray
    iterations: int

    @property
    def reached(self) -> int:
        return int(np.isfinite(self.dist).sum())


def sssp(
    engine: BaseEngine,
    source: int,
    max_iterations: int | None = None,
) -> SSSPResult:
    """Bellman-Ford from ``source``; requires non-negative edge weights."""
    graph = engine.graph
    if not graph.is_weighted:
        raise GraphError("SSSP needs a weighted graph")
    if graph.num_edges and graph.in_weights.min() < 0:
        raise GraphError("SSSP requires non-negative edge weights")
    n = graph.num_vertices
    limit = max_iterations if max_iterations is not None else n + 1

    s = engine.new_state()
    s.set("dist", np.full(n, INF))
    s.dist[source] = 0.0
    s.set("wview", _weight_lookup(graph))

    active = graph.in_degrees() > 0
    iterations = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[source] = True
    engine.sync_state(np.asarray([source]), sync_bytes=8)

    while True:
        if iterations >= limit:
            raise ConvergenceError("SSSP exceeded its iteration budget")
        # only vertices adjacent to a changed distance can improve
        candidates = graph.out_neighbor_mask(np.flatnonzero(frontier))
        candidates &= active
        if not candidates.any():
            break
        result = engine.pull(
            sssp_signal,
            _relax_slot,
            s,
            candidates,
            update_bytes=12,
            sync_bytes=8,
        )
        iterations += 1
        frontier[:] = False
        if not result.any_changed:
            break
        frontier[result.changed] = True

    return SSSPResult(dist=s.dist.copy(), iterations=iterations)


def sssp_multi(
    engine: BaseEngine,
    sources: "list[int]",
    max_iterations: int | None = None,
) -> "list[SSSPResult]":
    """Run SSSP from many sources on one prepared engine, in order.

    The multi-source batch entry mirroring
    :func:`repro.algorithms.bfs.bfs_multi`: one engine (partition,
    executor bind, weight tables warmed per vertex) serves the whole
    batch, while each source still relaxes on a fresh distance array so
    its result is bit-identical to a standalone :func:`sssp` run.
    """
    return [
        sssp(engine, int(source), max_iterations) for source in sources
    ]


class _WeightView:
    """Cached per-destination (u -> weight) lookup tables."""

    __slots__ = ("_graph", "_cache")

    def __init__(self, graph) -> None:
        self._graph = graph
        self._cache = {}

    def __getitem__(self, v: int) -> "_DestWeights":
        table = self._cache.get(v)
        if table is None:
            table = _DestWeights(self._graph, v)
            self._cache[v] = table
        return table


class _DestWeights:
    __slots__ = ("_index",)

    def __init__(self, graph, v: int) -> None:
        weights = graph.in_edge_weights(v)
        neighbors = graph.in_neighbors(v)
        # parallel edges collapse to their minimum weight, which is the
        # only one a shortest path can use
        index: dict = {}
        for u, w in zip(neighbors, weights):
            u, w = int(u), float(w)
            if u not in index or w < index[u]:
                index[u] = w
        self._index = index

    def weight_to(self, u: int) -> float:
        return self._index[u]


def _weight_lookup(graph) -> "_WeightView":
    return _WeightView(graph)
