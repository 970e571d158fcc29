"""Incremental BFS / CC / k-core over a mutating :class:`Session` graph.

Each handle computes once from scratch, then — after the session's
graph mutates — repairs only the *affected subgraph* instead of
re-running the whole algorithm:

* **inserts** seed the relaxation at the inserted edges' destinations
  (a new edge can only improve a monotone quantity downstream of it);
* **deletes** conservatively invalidate every vertex whose current
  value could have been *derived through* a deleted edge: a reverse
  of the value-derivation chains (``depth[w] == depth[x] + 1`` for
  BFS, ``label[w] == label[x]`` for CC), walked forward from the
  deleted edges' destinations; invalidated vertices reset to their
  identity value and re-relax against the untouched boundary.

Both algorithms are monotone min-folds with canonical fixpoints
(shortest hop count; minimum reaching vertex id), so the repaired
state is **bit-identical** to a from-scratch run on the equivalent
static graph — the metamorphic gate the dynamic-graph test suite and
``bench_dynamic.py --smoke`` enforce on every batch, across the
serial, thread, and process executors.

The relaxation phases run through the ordinary engine pull protocol
(via :meth:`Session.engine_context`), so dependency accounting, the
executor backends, and observability all apply unchanged.  Incremental
k-core (BLADYG's case study) repairs deletion-only batches by cascade
peeling inside the previous core and falls back to a snapshot recompute
when a batch inserts edges.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConvergenceError, GraphError
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import MutationBatch

__all__ = [
    "IncrementalBFS",
    "IncrementalCC",
    "IncrementalKCore",
    "IncrementalResult",
    "relax_depth_signal",
]

#: unreached sentinel: large enough that depth never reaches it, small
#: enough that ``INF + 1`` cannot overflow int64
_INF = np.int64(1) << np.int64(62)


def relax_depth_signal(v, nbrs, s, emit):
    """Emit the best in-neighbor depth + 1 if it beats the current one."""
    best = s.depth[v]
    for u in nbrs:
        d = s.depth[u] + 1
        if d < best:
            best = d
    if best < s.depth[v]:
        # min-fold into an idempotent min-slot: re-delivering the same
        # depth is harmless, so the double-count hazard does not apply.
        emit(best)  # repro: noqa[cumulative-emit]


def _depth_slot(v, value, s):
    if value < s.depth[v]:
        s.depth[v] = value
        return True
    return False


def _array_digest(tag: str, array: np.ndarray) -> str:
    payload = np.ascontiguousarray(array.astype("<i8", copy=False))
    h = hashlib.sha256()
    h.update(tag.encode("utf-8"))
    h.update(payload.tobytes())
    return h.hexdigest()


@dataclass
class IncrementalResult:
    """One refresh outcome: the repaired per-vertex array + provenance."""

    #: "bfs", "cc", or "kcore"
    algorithm: str
    #: depths (-1 unreached) / component labels / core membership (0/1)
    values: np.ndarray
    #: graph version the values are exact for
    version: int
    #: "scratch" or "incremental"
    mode: str
    #: engine pull iterations (0 for a no-op refresh and for kcore)
    iterations: int

    def digest(self) -> str:
        """Canonical sha256 over the result values (version-free, so
        an incremental repair and a from-scratch run digest equal)."""
        return _array_digest(f"{self.algorithm}:", self.values)


def _frontier(graph: CSRGraph, changed: np.ndarray, pullable: np.ndarray):
    return graph.out_neighbor_mask(changed) & pullable


def _relax_to_fixpoint(engine, signal, slot, state, active) -> int:
    """Drive pull phases until no value changes; returns iterations."""
    graph = engine.graph
    pullable = graph.in_degrees() > 0
    active = active & pullable
    limit = graph.num_vertices + 1
    iterations = 0
    while active.any():
        if iterations >= limit:
            raise ConvergenceError(
                "incremental relaxation exceeded its iteration budget"
            )
        result = engine.pull(
            signal, slot, state, active, update_bytes=8, sync_bytes=8
        )
        iterations += 1
        if not result.any_changed:
            break
        active = _frontier(graph, result.changed, pullable)
    return iterations


def _bfs_affected(
    graph: CSRGraph,
    depth: np.ndarray,
    seeds: np.ndarray,
    root: int,
) -> np.ndarray:
    """Deletion-invalidated vertices under min-hop depths.

    Ramalingam–Reps style support pruning: a candidate ``w`` keeps its
    depth if some *surviving* in-neighbor one level up is itself
    unaffected; only unsupported vertices are invalidated, and their
    equality-chain children (``depth == depth[w] + 1`` over surviving
    out-edges) become candidates.  Candidates are processed in
    increasing old-depth order, so every depth ``d-1`` verdict is final
    before any depth ``d`` candidate is judged — which makes the
    support check exact, not heuristic.  The root's depth is axiomatic
    and never invalidated.
    """
    affected = np.zeros(graph.num_vertices, dtype=bool)
    enqueued = np.zeros(graph.num_vertices, dtype=bool)
    heap: list = []
    for v in seeds:
        v = int(v)
        if v == root or depth[v] >= _INF or enqueued[v]:
            continue
        enqueued[v] = True
        heapq.heappush(heap, (int(depth[v]), v))
    while heap:
        d, w = heapq.heappop(heap)
        supported = False
        for u in graph.in_neighbors(w):
            u = int(u)
            if depth[u] == d - 1 and not affected[u]:
                supported = True
                break
        if supported:
            continue
        affected[w] = True
        for v in graph.out_neighbors(w):
            v = int(v)
            if v == root or enqueued[v] or depth[v] != d + 1:
                continue
            enqueued[v] = True
            heapq.heappush(heap, (d + 1, v))
    return affected


def _affected_closure(
    graph: CSRGraph,
    values: np.ndarray,
    seeds: np.ndarray,
    delta: int,
) -> np.ndarray:
    """Vertices whose value may derive through a deleted edge.

    Walks derivation chains forward from ``seeds`` (deleted-edge
    destinations) over the *surviving* out-edges: ``w`` extends the
    closure from ``x`` when ``values[w] == values[x] + delta``.  Any
    derivation path of an invalid value either crosses a deleted edge
    (its destination is a seed) or runs along surviving equality-chain
    edges — both are covered, so the closure is conservative-sound.
    """
    affected = np.zeros(graph.num_vertices, dtype=bool)
    queue: deque = deque()
    for v in seeds:
        v = int(v)
        if not affected[v]:
            affected[v] = True
            queue.append(v)
    while queue:
        x = queue.popleft()
        vx = values[x]
        if vx >= _INF:
            continue  # nothing derives from an unreached value
        want = vx + delta
        for w in graph.out_neighbors(x):
            w = int(w)
            if not affected[w] and values[w] == want:
                affected[w] = True
                queue.append(w)
    return affected


def _collect_mutations(
    batches: List[Tuple[int, MutationBatch]], n: int
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """(insert destinations, delete destinations, any inserts) in-range."""
    ins: List[np.ndarray] = []
    dels: List[np.ndarray] = []
    any_inserts = False
    for _, batch in batches:
        if batch.num_inserts:
            any_inserts = True
            ins.append(batch.insert_dst)
        if batch.num_deletes:
            dels.append(batch.delete_dst)
        if batch.add_vertices:
            any_inserts = any_inserts or False
    empty = np.empty(0, dtype=np.int64)
    ins_dst = np.unique(np.concatenate(ins)) if ins else empty
    del_dst = np.unique(np.concatenate(dels)) if dels else empty
    return ins_dst[ins_dst < n], del_dst[del_dst < n], any_inserts


class _IncrementalBase:
    """Shared session/version bookkeeping of the incremental handles."""

    algorithm = "abstract"

    def __init__(self, session, config=None) -> None:
        self.session = session
        self.config = config if config is not None else session.config
        self.version = -1
        self._values: Optional[np.ndarray] = None

    def result(self) -> IncrementalResult:
        """The latest refreshed result (refresh() must have run)."""
        if self._values is None:
            raise GraphError(
                f"incremental {self.algorithm} has no result yet; "
                "call refresh()"
            )
        return IncrementalResult(
            algorithm=self.algorithm,
            values=self._present(self._values),
            version=self.version,
            mode=self._mode,
            iterations=self._iterations,
        )

    def _present(self, values: np.ndarray) -> np.ndarray:
        return values.copy()

    def refresh(self) -> IncrementalResult:
        """Bring the result up to the session's current graph version."""
        with self.session.engine_context(self.config) as (
            engine, graph, version
        ):
            if version == self.version and self._values is not None:
                self._mode = "noop"
                self._iterations = 0
                return self.result()
            batches = self.session.mutations_since(self.version)
            if self._values is None or batches is None:
                self._mode = "scratch"
                self._iterations = self._scratch(engine, graph)
            else:
                self._mode = "incremental"
                self._iterations = self._incremental(engine, graph, batches)
            self.version = version
        return self.result()

    # hooks ---------------------------------------------------------------

    def _scratch(self, engine, graph: CSRGraph) -> int:
        raise NotImplementedError

    def _incremental(self, engine, graph: CSRGraph, batches) -> int:
        raise NotImplementedError


class IncrementalBFS(_IncrementalBase):
    """Incremental single-source hop counts (canonical BFS depths)."""

    algorithm = "bfs"

    def __init__(self, session, root: int, config=None) -> None:
        super().__init__(session, config)
        root = int(root)
        if root < 0 or root >= session.graph.num_vertices:
            raise GraphError(
                f"BFS root {root} out of range "
                f"[0, {session.graph.num_vertices})"
            )
        self.root = root

    def _present(self, values: np.ndarray) -> np.ndarray:
        out = values.copy()
        out[out >= _INF] = -1
        return out

    def _scratch(self, engine, graph: CSRGraph) -> int:
        n = graph.num_vertices
        depth = np.full(n, _INF, dtype=np.int64)
        depth[self.root] = 0
        s = engine.new_state()
        s.set("depth", depth)
        pullable = graph.in_degrees() > 0
        active = _frontier(graph, np.asarray([self.root]), pullable)
        iterations = _relax_to_fixpoint(
            engine, relax_depth_signal, _depth_slot, s, active
        )
        self._values = s.depth.copy()
        return iterations

    def _incremental(self, engine, graph: CSRGraph, batches) -> int:
        n = graph.num_vertices
        old = self._values
        depth = np.concatenate([
            old, np.full(n - old.size, _INF, dtype=np.int64),
        ]) if n > old.size else old.copy()
        ins_dst, del_dst, _ = _collect_mutations(batches, n)
        affected = _bfs_affected(graph, depth, del_dst, self.root)
        depth[affected] = _INF
        active = affected.copy()
        active[ins_dst] = True
        s = engine.new_state()
        s.set("depth", depth)
        iterations = _relax_to_fixpoint(
            engine, relax_depth_signal, _depth_slot, s, active
        )
        self._values = s.depth.copy()
        return iterations


class IncrementalCC(_IncrementalBase):
    """Incremental label propagation (min reaching vertex id)."""

    algorithm = "cc"

    def _scratch(self, engine, graph: CSRGraph) -> int:
        # imported here to keep the module importable without pulling
        # the full algorithm corpus at package-init time
        from repro.algorithms.cc import _min_slot, cc_signal

        n = graph.num_vertices
        s = engine.new_state()
        s.set("label", np.arange(n, dtype=np.int64))
        active = graph.in_degrees() > 0
        iterations = _relax_to_fixpoint(
            engine, cc_signal, _min_slot, s, active
        )
        self._values = s.label.copy()
        return iterations

    def _incremental(self, engine, graph: CSRGraph, batches) -> int:
        from repro.algorithms.cc import _min_slot, cc_signal

        n = graph.num_vertices
        old = self._values
        label = np.concatenate([
            old, np.arange(old.size, n, dtype=np.int64),
        ]) if n > old.size else old.copy()
        ins_dst, del_dst, _ = _collect_mutations(batches, n)
        affected = _affected_closure(graph, label, del_dst, delta=0)
        reset = np.flatnonzero(affected)
        label[reset] = reset  # back to identity, re-derive from boundary
        active = affected.copy()
        active[ins_dst] = True
        s = engine.new_state()
        s.set("label", label)
        iterations = _relax_to_fixpoint(
            engine, cc_signal, _min_slot, s, active
        )
        self._values = s.label.copy()
        return iterations


class IncrementalKCore(_IncrementalBase):
    """Incremental k-core membership (BLADYG's case study).

    Deletions only shrink the core, so a deletion-only batch sequence
    repairs by cascade-peeling inside the previous core.  Inserted
    edges can grow the core non-locally; those batches recompute on the
    snapshot (same single-machine peel as
    :func:`~repro.algorithms.kcore.kcore_peel`, so results stay exact).
    """

    algorithm = "kcore"

    def __init__(self, session, k: int, config=None) -> None:
        super().__init__(session, config)
        if k < 1:
            raise GraphError(f"k must be >= 1, got {k}")
        self.k = int(k)

    def refresh(self) -> IncrementalResult:
        # no engine phases: peel is the single-machine reference path
        graph, version = self.session._graph_snapshot()
        if version == self.version and self._values is not None:
            self._mode = "noop"
            self._iterations = 0
            return self.result()
        batches = self.session.mutations_since(self.version)
        if self._values is None or batches is None:
            self._mode = "scratch"
            self._scratch_peel(graph)
        else:
            _, _, any_inserts = _collect_mutations(
                batches, graph.num_vertices
            )
            if any_inserts:
                self._mode = "scratch"
                self._scratch_peel(graph)
            else:
                self._mode = "incremental"
                self._shrink(graph)
        self._iterations = 0
        self.version = version
        return self.result()

    def _present(self, values: np.ndarray) -> np.ndarray:
        return values.astype(np.int64)

    def _scratch_peel(self, graph: CSRGraph) -> None:
        from repro.algorithms.kcore import kcore_peel

        self._values = kcore_peel(graph, self.k).in_core

    def _shrink(self, graph: CSRGraph) -> None:
        """Cascade-peel the previous core against the shrunken graph."""
        n = graph.num_vertices
        old = self._values
        in_core = np.concatenate([
            old, np.zeros(n - old.size, dtype=bool),
        ]) if n > old.size else old.copy()
        # degree within the candidate set, on the post-deletion graph
        degree = np.zeros(n, dtype=np.int64)
        members = np.flatnonzero(in_core)
        for v in members:
            degree[v] = int(
                np.count_nonzero(in_core[graph.in_neighbors(int(v))])
            )
        queue = deque(int(v) for v in members if degree[v] < self.k)
        while queue:
            v = queue.popleft()
            if not in_core[v]:
                continue
            in_core[v] = False
            for u in graph.in_neighbors(v):
                u = int(u)
                if not in_core[u]:
                    continue
                degree[u] -= 1
                if degree[u] < self.k:
                    queue.append(u)
        self._values = in_core
