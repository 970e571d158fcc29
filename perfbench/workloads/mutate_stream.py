"""``mutate_stream``: writes beside reads on a dynamic graph.

Closed loop, one caller, serial executor.  Each op applies one
mutation batch from a fixed seeded schedule (symmetric, inserts to
deletes 2:1, periodic vertex growth) with ``Session.mutate`` and then
refreshes an incremental BFS and an incremental CC.  It is the only
workload that loads the dynamic-graph overlay and its compaction, the
incremental partition refresh and the incremental relaxations.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from perfbench.common import Counts, Phase, SetupClock, closed_loop, make_hub
from perfbench.reference import Reference
from perfbench.schedules import mutation_batches, op_count

NAME = "mutate_stream"
SCALE = 11
EDGE_FACTOR = 16
GRAPH_SEED = 7
MACHINES = 8
BATCH_EDGES = 96
GROW_EVERY = 8
OPS_PER_SECOND = 8.0
MIN_OPS = 40


def _metered_session_class():
    from repro import Session

    class MeteredSession(Session):
        """A Session that tallies the engines incremental handles drive.

        The incremental algorithms run their pull phases on engines
        from :meth:`engine_context`; their cost-model counters are read
        here after each context closes.
        """

        counts: Counts = None

        @contextmanager
        def engine_context(self, config=None, **overrides):
            with super().engine_context(config, **overrides) as ctx:
                yield ctx
                if self.counts is not None:
                    self.counts.add_engine(ctx[0])

    return MeteredSession


class Workload:
    name = NAME

    def __init__(self, seed: int, seconds: float) -> None:
        from repro import rmat
        from repro.graph.transform import to_undirected

        base = to_undirected(
            rmat(scale=SCALE, edge_factor=EDGE_FACTOR, seed=GRAPH_SEED)
        )
        src, dst = base.edge_array()
        self.root = int(np.argmax(base.out_degrees()))
        self.ops = mutation_batches(
            seed, base.num_vertices, src, dst,
            op_count(seconds, OPS_PER_SECOND, MIN_OPS),
            BATCH_EDGES, GROW_EVERY,
        )
        self.session = None

    def setup(self, clock: SetupClock, tally=None) -> None:
        from repro import RunConfig, rmat
        from repro.algorithms import IncrementalBFS, IncrementalCC
        from repro.graph.transform import to_undirected

        obs = make_hub(tally)
        with clock.phase("generate"):
            graph = to_undirected(
                rmat(scale=SCALE, edge_factor=EDGE_FACTOR, seed=GRAPH_SEED)
            )
        with clock.phase("warmup"):
            config = RunConfig(machines=MACHINES, bfs_roots=1, obs=obs)
            session = _metered_session_class()(graph, config)
            self.bfs = IncrementalBFS(session, root=self.root)
            self.cc = IncrementalCC(session)
            self.bfs.refresh()
            self.cc.refresh()
        self.session = session
        self.obs = obs

    def pids(self):
        return []

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def _op(self, i: int, batch):
        from repro.graph.dynamic import MutationBatch

        stats = self.session.mutate(MutationBatch(**batch), obs=self.obs)
        return stats, self.bfs.refresh(), self.cc.refresh()

    def _check_op(self, i: int, batch, out) -> None:
        """Compare the refreshed values with scipy on this version."""
        _, bfs, cc = out
        graph = self.session.graph
        src, dst = graph.edge_array()
        ref = Reference(graph.num_vertices, src, dst)
        notes = []
        if not np.array_equal(bfs.values, ref.bfs_depth(self.root)):
            notes.append("bfs depths differ from scipy")
        if not np.array_equal(cc.values, ref.undirected_labels()):
            notes.append("cc labels differ from scipy")
        self._wrong[i] = notes

    def timed(self, probe, recorder=None) -> Phase:
        self._wrong = {}
        phase = Phase()
        self.session.counts = phase.counts
        try:
            closed_loop(probe, self.ops, self._op, recorder,
                        after_op=self._check_op, phase=phase)
        finally:
            self.session.counts = None
        return phase

    def check(self, phase: Phase) -> None:
        for i, notes in self._wrong.items():
            for note in notes:
                phase.ledger.mark_wrong(i, note)
