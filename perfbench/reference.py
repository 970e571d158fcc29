"""Independent output references, built on ``scipy.sparse.csgraph``.

BFS hop counts, SSSP distances and undirected component labels are
computed here from the graph's edge arrays alone and compared with the
program's fixpoints -- through the program's public ``fixpoint_digest``
where its output arrays have the same meaning.  Algorithms without a
scipy counterpart (directed min-label propagation, PageRank, k-core)
are compared against the program's ``single`` engine instead, which
shares no partitioning, executor or distributed-engine code with the
runs under test.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra, shortest_path

__all__ = ["Reference"]


class Reference:
    """scipy views of one graph, built once per check pass."""

    def __init__(self, num_vertices: int, src: np.ndarray, dst: np.ndarray,
                 weights: np.ndarray = None) -> None:
        n = int(num_vertices)
        self.n = n
        ones = np.ones(src.size, dtype=np.float64)
        self._hops = csr_matrix((ones, (src, dst)), shape=(n, n))
        self._weighted = None
        if weights is not None:
            # parallel edges: the lightest copy is the one that counts
            order = np.lexsort((weights, dst, src))
            s, d, w = src[order], dst[order], weights[order]
            first = np.ones(s.size, dtype=bool)
            first[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
            self._weighted = csr_matrix(
                (w[first], (s[first], d[first])), shape=(n, n)
            )
        self._cache: Dict[Tuple[str, int], np.ndarray] = {}

    def bfs_depth(self, root: int) -> np.ndarray:
        """Hop count from ``root`` along out-edges; -1 if unreached."""
        key = ("bfs", int(root))
        if key not in self._cache:
            hops = shortest_path(self._hops, unweighted=True,
                                 indices=int(root))
            self._cache[key] = np.where(
                np.isinf(hops), -1, hops
            ).astype(np.int64)
        return self._cache[key]

    def bfs_arrays(self, root: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(visited, depth)`` as the program's BFS result holds them."""
        depth = self.bfs_depth(root)
        return depth >= 0, depth

    def sssp_dist(self, root: int) -> np.ndarray:
        """Float64 shortest distances from ``root``; inf if unreached."""
        if self._weighted is None:
            raise ValueError("graph was built without weights")
        return dijkstra(self._weighted, indices=int(root))

    def undirected_labels(self) -> np.ndarray:
        """Smallest vertex id of each vertex's (weak) component."""
        _, comp = connected_components(self._hops, directed=True,
                                       connection="weak")
        smallest = np.full(comp.max() + 1, self.n, dtype=np.int64)
        np.minimum.at(smallest, comp, np.arange(self.n, dtype=np.int64))
        return smallest[comp]
