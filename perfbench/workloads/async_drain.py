"""``async_drain``: the async priority-bucket mode.

Closed loop, one caller, serial executor.  Each op is one round of
``mode="async"`` ``Session.run``: pagerank on a small skewed R-MAT
(a = 0.7), then sssp and cc on a weighted skewed R-MAT.  It is the only
workload that loads ``engine.async_mode`` and its per-wave push
interpreter.  The pagerank config is the same in every op (so it must
digest identically across the run); sssp and cc take a seed per op,
which picks the sssp source and jitters the bucket boundaries.  The
per-op seeds are a fixed catalogue in seeded order, so every seed runs
the same work.
"""

from __future__ import annotations

import numpy as np

from perfbench.common import Phase, SetupClock, closed_loop, make_hub
from perfbench.reference import Reference
from perfbench.schedules import op_count, op_seeds, shuffled

NAME = "async_drain"
SKEW = dict(a=0.7, b=0.1, c=0.1)
PAGERANK_SCALE = 7
PAGERANK_EDGE_FACTOR = 8
WEIGHTED_SCALE = 10
WEIGHTED_EDGE_FACTOR = 16
GRAPH_SEED = 7
WEIGHT_SEED = 3
#: pagerank's bucket-jitter seed, fixed so every op repeats one config
PAGERANK_SEED = 1
#: seeds the catalogue of per-op sssp/cc seeds
CATALOGUE_SEED = 0
MACHINES = 8
OPS_PER_SECOND = 1.5
MIN_OPS = 6
#: see analytics_batch.RESIDUAL_RTOL
RESIDUAL_RTOL = 1e-6
ASYNC_KEYS = ("async_buckets", "async_waves", "activations")


class Workload:
    name = NAME

    def __init__(self, seed: int, seconds: float) -> None:
        self.ops = shuffled(seed, op_seeds(
            CATALOGUE_SEED, op_count(seconds, OPS_PER_SECOND, MIN_OPS)))
        self.sessions = None

    def setup(self, clock: SetupClock, tally=None) -> None:
        from repro import RunConfig, Session, rmat
        from repro.graph.generators import random_weights

        obs = make_hub(tally)
        with clock.phase("generate"):
            small = rmat(scale=PAGERANK_SCALE,
                         edge_factor=PAGERANK_EDGE_FACTOR,
                         seed=GRAPH_SEED, **SKEW)
            weighted = random_weights(
                rmat(scale=WEIGHTED_SCALE, edge_factor=WEIGHTED_EDGE_FACTOR,
                     seed=GRAPH_SEED + 1, **SKEW),
                seed=WEIGHT_SEED, low=0.1, high=1.0,
            )
        with clock.phase("warmup"):
            base = RunConfig(machines=MACHINES, mode="async", obs=obs)
            self.sessions = {
                "pagerank": Session(small, base.replace(
                    algorithm="pagerank", seed=PAGERANK_SEED)),
                "sssp": Session(weighted, base.replace(algorithm="sssp")),
                "cc": Session(weighted, base.replace(algorithm="cc")),
            }
            self._op(-1, self.ops[0])
        self.graphs = {"pagerank": small, "weighted": weighted}

    def pids(self):
        return []

    def teardown(self) -> None:
        for session in (self.sessions or {}).values():
            session.close()
        self.sessions = None

    def _op(self, i: int, op_seed: int):
        return {
            "pagerank": self.sessions["pagerank"].run(),
            "sssp": self.sessions["sssp"].run(seed=op_seed),
            "cc": self.sessions["cc"].run(seed=op_seed),
        }

    def timed(self, probe, recorder=None) -> Phase:
        phase = closed_loop(probe, self.ops, self._op, recorder)
        tally = dict.fromkeys(ASYNC_KEYS, 0.0)
        for results in phase.outputs.values():
            for result in results.values():
                phase.counts.add_result(result)
                for key in ASYNC_KEYS:
                    tally[key] += result.extra.get(key, 0.0)
        phase.info["async"] = tally
        return phase

    def check(self, phase: Phase) -> None:
        from repro import Session
        from repro.algorithms.registry import fixpoint_digest, run_sources

        weighted = self.graphs["weighted"]
        src, dst = weighted.edge_array()
        ref = Reference(weighted.num_vertices, src, dst,
                        np.asarray(weighted.out_weights))
        sssp_cfg = self.sessions["sssp"].config
        pr_cfg = self.sessions["pagerank"].config.replace(
            engine="single", obs=None)
        with Session(self.graphs["pagerank"]) as single:
            pagerank = single.run(pr_cfg)
        with Session(weighted) as single:
            cc = single.run(self.sessions["cc"].config.replace(
                engine="single", mode="sync", obs=None))
        pagerank_digest = None
        ledger = phase.ledger
        for i, results in sorted(phase.outputs.items()):
            digest = results["pagerank"].digest()
            pagerank_digest = pagerank_digest or digest
            if digest != pagerank_digest:
                ledger.mark_wrong(i, "pagerank digest differs from op 0")
            (root,) = run_sources(weighted,
                                  sssp_cfg.replace(seed=self.ops[i]), 1)
            expected = fixpoint_digest(ref.sssp_dist(int(root)))
            if results["sssp"].fixpoint != expected:
                ledger.mark_wrong(i, "sssp distances differ from scipy")
            if results["cc"].fixpoint != cc.fixpoint:
                ledger.mark_wrong(i, "async cc differs from sync single")
            pr = results["pagerank"].extra
            if pr["iterations"] != pagerank.extra["iterations"] or not \
                    np.isclose(pr["residual"], pagerank.extra["residual"],
                               rtol=RESIDUAL_RTOL, atol=0.0):
                ledger.mark_wrong(i, "pagerank differs from single engine")
