"""``analytics_batch``: dense sync analytics on the process executor.

Closed loop, one caller.  Each op is one round of sync ``Session.run``
for pagerank, cc, kcore and bfs (2 roots) on an undirected R-MAT, with
the process executor and one worker per CPU.  Long dense pull phases
make pull kernels, slot folds, executor dispatch/IPC and the parent's
serial merge tail carry the work; per-run overhead is small.  The BFS
root pairs come from a fixed catalogue in seeded order, so every seed
runs the same work.
"""

from __future__ import annotations

import os

import numpy as np

from perfbench.common import Phase, SetupClock, closed_loop, make_hub
from perfbench.procs import descendants
from perfbench.reference import Reference
from perfbench.schedules import op_count, root_sets, shuffled

NAME = "analytics_batch"
SCALE = 10
EDGE_FACTOR = 16
GRAPH_SEED = 7
#: 4 simulated machines, not 8: every circulant step is one pool
#: dispatch, and with 8 the dispatch jitter doubled the run-to-run spread
MACHINES = 4
BFS_ROOTS = 2
ALGORITHMS = ("pagerank", "cc", "kcore", "bfs")
#: rounds per second at nominal host speed (sizes the op count)
OPS_PER_SECOND = 2.0
MIN_OPS = 8
#: relative tolerance on PageRank's residual against the single engine:
#: the engines sum in different orders, and the residual is a difference
#: of nearly equal float64 vectors, so its last ~8 digits are rounding
RESIDUAL_RTOL = 1e-6


def _generate():
    from repro import rmat
    from repro.graph.transform import to_undirected

    return to_undirected(
        rmat(scale=SCALE, edge_factor=EDGE_FACTOR, seed=GRAPH_SEED)
    )


class Workload:
    name = NAME

    def __init__(self, seed: int, seconds: float) -> None:
        graph = _generate()
        self.ops = shuffled(seed, root_sets(
            np.flatnonzero(graph.out_degrees() > 0),
            op_count(seconds, OPS_PER_SECOND, MIN_OPS), BFS_ROOTS,
        ))
        #: the pool computes on every CPU, so the probe samples each
        self.cpus = self.workers = os.cpu_count() or 1
        self.graph = None
        self.session = None

    # -- program lifecycle ------------------------------------------------

    def setup(self, clock: SetupClock, tally=None) -> None:
        from repro import RunConfig, Session

        obs = make_hub(tally)
        with clock.phase("generate"):
            graph = _generate()
        with clock.phase("warmup"):
            # partition, pool spawn, topology publish, and a first round,
            # whose runs pay one-time costs the timed rounds do not
            self.graph, self.session = graph, Session(graph, RunConfig(
                machines=MACHINES, executor="process", workers=self.workers,
                obs=obs,
            ))
            self._op(-1, self.ops[0])

    def pids(self):
        return descendants()

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    # -- timed phase ------------------------------------------------------

    def _op(self, i: int, roots):
        config = self.session.config
        return {
            alg: self.session.run(config.replace(
                algorithm=alg, sources=roots if alg == "bfs" else None))
            for alg in ALGORITHMS
        }

    def timed(self, probe, recorder=None) -> Phase:
        before = _exec_stats(self.session)
        phase = closed_loop(probe, self.ops, self._op, recorder)
        after = _exec_stats(self.session)
        phase.info["exec"] = {k: after[k] - before.get(k, 0) for k in after}
        for results in phase.outputs.values():
            for result in results.values():
                phase.counts.add_result(result)
        return phase

    # -- output checks (outside timed windows) ----------------------------

    def check(self, phase: Phase) -> None:
        from repro import RunConfig, Session
        from repro.algorithms.registry import fixpoint_digest

        src, dst = self.graph.edge_array()
        ref = Reference(self.graph.num_vertices, src, dst)
        cc_expected = fixpoint_digest(ref.undirected_labels())
        with Session(self.graph) as single:
            pagerank = single.run(RunConfig(engine="single",
                                            algorithm="pagerank"))
            kcore = single.run(RunConfig(engine="single", algorithm="kcore"))
        digests = {}
        ledger = phase.ledger
        for i, results in sorted(phase.outputs.items()):
            for alg in ("pagerank", "cc", "kcore"):
                first = digests.setdefault(alg, results[alg].digest())
                if results[alg].digest() != first:
                    ledger.mark_wrong(i, f"{alg} digest differs from op 0")
            if results["cc"].fixpoint != cc_expected:
                ledger.mark_wrong(i, "cc labels differ from scipy")
            arrays = [a for r in self.ops[i] for a in ref.bfs_arrays(r)]
            if results["bfs"].fixpoint != fixpoint_digest(*arrays):
                ledger.mark_wrong(i, "bfs depths differ from scipy")
            pr = results["pagerank"].extra
            if pr["iterations"] != pagerank.extra["iterations"] or not \
                    np.isclose(pr["residual"], pagerank.extra["residual"],
                               rtol=RESIDUAL_RTOL, atol=0.0):
                ledger.mark_wrong(i, "pagerank differs from single engine")
            if results["kcore"].extra["core_size"] != \
                    kcore.extra["core_size"]:
                ledger.mark_wrong(i, "kcore differs from single engine")


def _exec_stats(session) -> dict:
    out = {}
    for stats in session.executor_stats().values():
        for key in ("publish_bytes", "spawns", "delta_grows"):
            out[key] = out.get(key, 0) + int(stats.get(key, 0))
    return out
