"""Seeded, fixed-count op schedules.

Each function is a pure function of its arguments: the same seed
gives the same ops, so count metrics repeat exactly and
``mutate_stream`` walks the same graph versions in every run of one
seed.  Nothing here imports the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "Arrival",
    "arrivals",
    "root_sets",
    "shuffled",
    "mutation_batches",
    "op_count",
    "op_seeds",
]


#: seed of the fixed op catalogues that a run's seed only reorders
CATALOGUE_SEED = 0
#: distinct sources the hot share of open-loop queries cycles through
HOT_POOL = 8
#: share of open-loop queries drawn from the hot pool
HOT_SHARE = 0.2


def op_count(seconds: float, ops_per_second: float, minimum: int) -> int:
    """Ops in a run sized to take about ``seconds`` at nominal speed."""
    return max(minimum, int(round(seconds * ops_per_second)))


def op_seeds(seed: int, count: int) -> List[int]:
    """One engine seed per closed-loop op."""
    rng = np.random.default_rng([seed, 1])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


@dataclass(frozen=True)
class Arrival:
    """One open-loop request: when it is due and what it asks for."""

    due: float  # seconds after the schedule starts
    source: int
    hot: bool


def arrivals(seed: int, candidates: Sequence[int], count: int,
             rate: float) -> List[Arrival]:
    """An open-loop schedule of single-source queries.

    The queries come from a fixed catalogue: :data:`HOT_SHARE` of them
    cycle through a small hot pool (so repeats and coalescing occur)
    and the rest are distinct sources drawn uniformly from
    ``candidates`` (the non-isolated vertices).  The gaps between
    arrivals are a fixed catalogue too: ``count`` exponential draws (a
    Poisson process at ``rate``), scaled to span ``count / rate``
    seconds.  The run ``seed`` shuffles both, so every seed asks for
    the same work with the same mix of close and far arrivals, in a
    different order; how much requests queue behind each other then
    varies little from seed to seed.
    """
    catalogue = np.random.default_rng([CATALOGUE_SEED, 4])
    cands = np.asarray(candidates, dtype=np.int64)
    pool = catalogue.choice(cands, size=min(HOT_POOL, cands.size),
                            replace=False)
    n_hot = int(round(HOT_SHARE * count))
    rest = np.setdiff1d(cands, pool)
    cold = catalogue.choice(rest, size=count - n_hot,
                            replace=count - n_hot > rest.size)
    sources = np.concatenate([pool[np.arange(n_hot) % pool.size], cold])
    is_hot = np.arange(count) < n_hot
    gaps = catalogue.exponential(1.0, size=count)
    gaps *= (count / rate) / gaps.sum()
    rng = np.random.default_rng([seed, 2])
    order = rng.permutation(count)
    due = np.cumsum(rng.permutation(gaps))
    return [
        Arrival(float(d), int(sources[i]), bool(is_hot[i]))
        for d, i in zip(due, order)
    ]


def shuffled(seed: int, catalogue: Sequence) -> list:
    """A fixed catalogue of ops in an order drawn from ``seed``.

    Like :func:`arrivals`, every seed then runs the same multiset of
    ops, so a run's work does not depend on which seed it drew.
    """
    order = np.random.default_rng([seed, 5]).permutation(len(catalogue))
    return [catalogue[i] for i in order]


def root_sets(candidates: Sequence[int], count: int,
              per_op: int) -> List[Tuple[int, ...]]:
    """A catalogue of ``count`` BFS root sets of ``per_op`` roots each."""
    catalogue = np.random.default_rng([CATALOGUE_SEED, 5])
    cands = np.asarray(candidates, dtype=np.int64)
    return [
        tuple(int(v) for v in catalogue.choice(cands, size=per_op,
                                               replace=False))
        for _ in range(count)
    ]


class _LiveEdges:
    """Undirected live edge set with O(1) uniform sampling."""

    def __init__(self, src: np.ndarray, dst: np.ndarray) -> None:
        self.items: List[Tuple[int, int]] = []
        self.index: Dict[Tuple[int, int], int] = {}
        for u, v in zip(src.tolist(), dst.tolist()):
            if u < v:
                self.add((u, v))

    def add(self, edge: Tuple[int, int]) -> None:
        if edge not in self.index:
            self.index[edge] = len(self.items)
            self.items.append(edge)

    def remove(self, edge: Tuple[int, int]) -> None:
        i = self.index.pop(edge)
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.index[last] = i


def mutation_batches(seed: int, num_vertices: int, src: np.ndarray,
                     dst: np.ndarray, count: int, batch_edges: int,
                     grow_every: int) -> List[Dict[str, list]]:
    """Symmetric mutation batches valid against the graph ``(src, dst)``.

    Inserts and deletes come at 2:1 (streams grow); deletes always
    name live edges and a batch never inserts and deletes one pair.
    Every ``grow_every``-th batch also appends a vertex wired to a
    random existing one.  Each batch is a dict of
    :class:`repro.graph.dynamic.MutationBatch` keyword arguments.
    """
    rng = np.random.default_rng([seed, 3])
    live = _LiveEdges(np.asarray(src), np.asarray(dst))
    n = int(num_vertices)
    out: List[Dict[str, list]] = []
    n_ins = max(1, (2 * batch_edges) // 3)
    n_del = batch_edges - n_ins
    for b in range(count):
        inserts: List[Tuple[int, int]] = []
        while len(inserts) < n_ins:
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            edge = (min(u, v), max(u, v))
            if u != v and edge not in live.index and edge not in inserts:
                inserts.append(edge)
        deletes: List[Tuple[int, int]] = []
        for i in rng.choice(len(live.items), size=n_del, replace=False):
            deletes.append(live.items[int(i)])
        for edge in deletes:
            live.remove(edge)
        for edge in inserts:
            live.add(edge)
        add = 0
        if grow_every and (b + 1) % grow_every == 0:
            u = int(rng.integers(0, n))
            inserts.append((u, n))
            live.add((u, n))
            n += 1
            add = 1
        out.append({
            "insert_src": [e[0] for e in inserts] + [e[1] for e in inserts],
            "insert_dst": [e[1] for e in inserts] + [e[0] for e in inserts],
            "delete_src": [e[0] for e in deletes] + [e[1] for e in deletes],
            "delete_dst": [e[1] for e in deletes] + [e[0] for e in deletes],
            "add_vertices": add,
        })
    return out
