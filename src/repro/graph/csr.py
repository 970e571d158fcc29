"""Compressed Sparse Row (CSR) graph container.

The container keeps both the forward (outgoing) and the reverse
(incoming) adjacency so that push-style engines can scan out-edges and
pull-style engines can scan in-edges without re-sorting.  All payloads
are NumPy arrays, which keeps the memory layout identical to the
Struct-of-Arrays organization the paper uses (Section 6).

Vertices are dense integers ``0 .. num_vertices-1``.  Edges may carry a
float weight (used by the graph-sampling algorithm); unweighted graphs
store no weight array.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.errors import GraphError

__all__ = ["CSRGraph"]


def _build_csr(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Sort edges by ``src`` and build (indptr, indices, weights)."""
    order = np.argsort(src, kind="stable")
    sorted_dst = dst[order]
    sorted_w = weights[order] if weights is not None else None
    counts = np.bincount(src, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, sorted_dst.astype(np.int64, copy=False), sorted_w


class CSRGraph:
    """An immutable directed graph in CSR form.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex ids are ``0 .. num_vertices-1``.
    src, dst:
        Parallel arrays of edge endpoints (edge i is ``src[i] -> dst[i]``).
    weights:
        Optional parallel array of float edge weights.

    Use :meth:`from_edges` for validated construction from any iterable.
    """

    def __init__(
        self,
        num_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise GraphError("src and dst must be 1-D arrays of equal length")
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        if src.size and (src.min() < 0 or src.max() >= num_vertices):
            raise GraphError("edge source out of range")
        if dst.size and (dst.min() < 0 or dst.max() >= num_vertices):
            raise GraphError("edge destination out of range")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != src.shape:
                raise GraphError("weights must parallel the edge arrays")

        self._num_vertices = int(num_vertices)
        self._num_edges = int(src.size)
        self.out_indptr, self.out_indices, self.out_weights = _build_csr(
            num_vertices, src, dst, weights
        )
        self.in_indptr, self.in_indices, self.in_weights = _build_csr(
            num_vertices, dst, src, weights
        )

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[Tuple[int, int]],
        weights: Optional[Iterable[float]] = None,
    ) -> "CSRGraph":
        """Build a graph from an iterable of ``(src, dst)`` pairs."""
        edge_list = list(edges)
        if edge_list:
            arr = np.asarray(edge_list, dtype=np.int64)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise GraphError("edges must be (src, dst) pairs")
            src, dst = arr[:, 0], arr[:, 1]
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
        w = None
        if weights is not None:
            w = np.asarray(list(weights), dtype=np.float64)
        return cls(num_vertices, src, dst, w)

    # -- basic properties ----------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def is_weighted(self) -> bool:
        return self.out_weights is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRGraph(num_vertices={self._num_vertices}, "
            f"num_edges={self._num_edges}, weighted={self.is_weighted})"
        )

    # -- degrees --------------------------------------------------------

    def out_degrees(self) -> np.ndarray:
        """Array of out-degrees, indexed by vertex."""
        return np.diff(self.out_indptr)

    def in_degrees(self) -> np.ndarray:
        """Array of in-degrees, indexed by vertex."""
        return np.diff(self.in_indptr)

    def out_degree(self, v: int) -> int:
        """Number of outgoing edges of ``v``."""
        self._check_vertex(v)
        return int(self.out_indptr[v + 1] - self.out_indptr[v])

    def in_degree(self, v: int) -> int:
        """Number of incoming edges of ``v``."""
        self._check_vertex(v)
        return int(self.in_indptr[v + 1] - self.in_indptr[v])

    # -- adjacency -------------------------------------------------------

    def out_neighbors(self, v: int) -> np.ndarray:
        """Destinations of v's outgoing edges (a CSR slice; do not mutate)."""
        self._check_vertex(v)
        return self.out_indices[self.out_indptr[v] : self.out_indptr[v + 1]]

    def out_neighbor_mask(self, vertices: np.ndarray) -> np.ndarray:
        """Boolean mask over all vertices, True at every out-neighbor
        of ``vertices`` (a frontier expansion in one CSR gather)."""
        vertices = np.asarray(vertices, dtype=np.int64)
        mask = np.zeros(self.num_vertices, dtype=bool)
        starts = self.out_indptr[vertices]
        lens = self.out_indptr[vertices + 1] - starts
        total = int(lens.sum())
        if total:
            offsets = np.cumsum(lens) - lens
            flat = np.repeat(starts - offsets, lens) + np.arange(total)
            mask[self.out_indices[flat]] = True
        return mask

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sources of v's incoming edges (a CSR slice; do not mutate)."""
        self._check_vertex(v)
        return self.in_indices[self.in_indptr[v] : self.in_indptr[v + 1]]

    def out_edge_weights(self, v: int) -> np.ndarray:
        """Weights of v's outgoing edges, parallel to out_neighbors(v)."""
        if self.out_weights is None:
            raise GraphError("graph is unweighted")
        self._check_vertex(v)
        return self.out_weights[self.out_indptr[v] : self.out_indptr[v + 1]]

    def in_edge_weights(self, v: int) -> np.ndarray:
        """Weights of v's incoming edges, parallel to in_neighbors(v)."""
        if self.in_weights is None:
            raise GraphError("graph is unweighted")
        self._check_vertex(v)
        return self.in_weights[self.in_indptr[v] : self.in_indptr[v + 1]]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield every edge as a ``(src, dst)`` pair, grouped by source."""
        for v in range(self._num_vertices):
            for u in self.out_neighbors(v):
                yield v, int(u)

    def edge_array(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` arrays sorted by source."""
        src = np.repeat(np.arange(self._num_vertices), self.out_degrees())
        return src, self.out_indices.copy()

    def has_edge(self, u: int, v: int) -> bool:
        """True if the directed edge ``u -> v`` exists."""
        return bool(np.isin(v, self.out_neighbors(u)).any())

    # -- helpers ----------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._num_vertices:
            raise GraphError(
                f"vertex {v} out of range [0, {self._num_vertices})"
            )
