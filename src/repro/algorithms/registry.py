"""The algorithm registry: one spec per algorithm, everything derives.

Before this module existed, the entry point kept three hand-maintained
tuples (``_ALGORITHMS``, ``_RESUMABLE``, ``SOURCED_ALGORITHMS``) plus a
per-algorithm ``if`` ladder in the bench harness, and the CLI and the
serving layer each re-declared their own lists.  An
:class:`AlgorithmSpec` now carries every fact the framework needs about
one algorithm:

* ``runner`` — the measurement-protocol driver the harness dispatches
  to (``None`` for signal-only entries like the incremental handles);
* ``signals`` — the signal UDF(s) a run would execute, for the
  ``repro verify`` corpus and the Session pre-flight gate;
* ``resumable`` — whether fault injection / checkpointing apply;
* ``sourced`` — whether ``RunConfig.sources`` selects explicit roots
  (the hook the serving layer's batch coalescer keys on);
* ``modes`` — which execution modes the algorithm supports
  (``"sync"`` and/or ``"async"``);
* ``async_resumable`` — whether the async driver is a
  :class:`~repro.fault.program.VertexProgram` that the recoverable
  driver can checkpoint (at bucket-epoch boundaries);
* ``extras`` — the :class:`~repro.api.RunConfig` knobs the runner
  reads, for documentation and introspection.

``RunConfig.__post_init__`` validation, the CLI ``--algorithm``
choices, ``repro.algorithms.SIGNAL_UDFS``, and the serve batch planner
all derive from this table; registering a spec here is the single step
that makes an algorithm a first-class ``Session.run`` citizen.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import EngineError

__all__ = [
    "ALGORITHMS",
    "AlgorithmSpec",
    "RunOutcome",
    "algorithm_names",
    "all_specs",
    "async_algorithms",
    "fixpoint_digest",
    "get_spec",
    "register",
    "resumable_algorithms",
    "run_sources",
    "signal_udfs",
    "sourced_algorithms",
]

#: the execution modes a spec may declare
MODES = ("sync", "async")


@dataclass
class RunOutcome:
    """What a runner reports back to the harness beyond the counters.

    ``scale`` divides the counters and simulated time (the multi-root
    averaging protocol); ``fixpoint`` is a digest of the *converged
    algorithm output alone* (no schedule-dependent metadata), the value
    the sync-vs-async equivalence tests compare.
    """

    scale: float = 1.0
    fixpoint: Optional[str] = None


@dataclass(frozen=True)
class AlgorithmSpec:
    """Everything the framework knows about one algorithm."""

    name: str
    runner: Optional[Callable] = None
    signals: Tuple[Callable, ...] = ()
    resumable: bool = False
    sourced: bool = False
    modes: Tuple[str, ...] = ("sync",)
    async_resumable: bool = False
    extras: Tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        for mode in self.modes:
            if mode not in MODES:
                raise EngineError(
                    f"algorithm {self.name!r} declares unknown mode "
                    f"{mode!r}; expected one of {MODES}"
                )
        if self.async_resumable and "async" not in self.modes:
            raise EngineError(
                f"algorithm {self.name!r} is async_resumable but does "
                "not declare the 'async' mode"
            )

    @property
    def runnable(self) -> bool:
        """Whether ``Session.run`` can execute this algorithm."""
        return self.runner is not None

    def supports_mode(self, mode: str) -> bool:
        return mode in self.modes


_REGISTRY: Dict[str, AlgorithmSpec] = {}


def register(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Add a spec to the registry (name must be unused)."""
    if spec.name in _REGISTRY:
        raise EngineError(
            f"algorithm {spec.name!r} is already registered"
        )
    _REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> AlgorithmSpec:
    """The spec for ``name``; raises :class:`EngineError` if unknown."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise EngineError(
            f"unknown algorithm {name!r}; "
            f"expected one of {algorithm_names()}"
        )
    return spec


def all_specs() -> Tuple[AlgorithmSpec, ...]:
    """Every registered spec (runnable and signal-only), name order."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def algorithm_names() -> Tuple[str, ...]:
    """Names of every runnable algorithm, sorted."""
    return tuple(
        name for name in sorted(_REGISTRY) if _REGISTRY[name].runnable
    )


def resumable_algorithms() -> Tuple[str, ...]:
    """Algorithms fault injection and checkpointing support."""
    return tuple(
        name for name in sorted(_REGISTRY) if _REGISTRY[name].resumable
    )


def sourced_algorithms() -> Tuple[str, ...]:
    """Algorithms that accept an explicit ``sources`` tuple."""
    return tuple(
        name for name in sorted(_REGISTRY) if _REGISTRY[name].sourced
    )


def async_algorithms() -> Tuple[str, ...]:
    """Algorithms with a priority-bucket async driver."""
    return tuple(
        name
        for name in sorted(_REGISTRY)
        if _REGISTRY[name].supports_mode("async")
    )


def signal_udfs() -> Dict[str, Tuple[Callable, ...]]:
    """Name -> signal UDF(s), for the verification tooling."""
    return {
        name: _REGISTRY[name].signals
        for name in sorted(_REGISTRY)
        if _REGISTRY[name].signals
    }


# -- shared runner helpers ---------------------------------------------------


def fixpoint_digest(*arrays: np.ndarray) -> str:
    """Canonical sha256 over converged output arrays.

    Covers values and dtype only — deliberately *not* iteration counts,
    byte tallies, or anything else the schedule can legitimately vary —
    so a sync and an async run of the same algorithm digest identically
    iff they converged to the same answer.
    """
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.dtype).encode("ascii"))
        h.update(arr.tobytes())
    return h.hexdigest()


def _seeded_roots(graph, num_roots: int, seed: int) -> np.ndarray:
    """Random non-isolated roots (the paper uses 64 of them)."""
    rng = np.random.default_rng(seed)
    candidates = np.flatnonzero(graph.out_degrees() > 0)
    if candidates.size == 0:
        raise ValueError("graph has no non-isolated vertex to root BFS at")
    count = min(num_roots, candidates.size)
    return rng.choice(candidates, size=count, replace=False)


def run_sources(graph, config, default_count: int) -> np.ndarray:
    """The roots/sources one run traverses from.

    Explicit ``config.sources`` (validated against the graph) when the
    caller — typically the serving layer's batching coalescer — pinned
    them; otherwise the seeded multi-root protocol.
    """
    if config.sources is None:
        return _seeded_roots(graph, default_count, config.seed)
    sources = np.asarray(config.sources, dtype=np.int64)
    n = graph.num_vertices
    bad = sources[(sources < 0) | (sources >= n)]
    if bad.size:
        raise EngineError(
            f"sources {bad.tolist()} out of range for a graph with "
            f"{n} vertices"
        )
    return sources


def _async_stats(extra: Dict[str, float], results) -> None:
    """Accumulate bucket-scheduler stats into a run's extras."""
    extra["async_buckets"] = float(sum(r.buckets for r in results))
    extra["async_waves"] = float(sum(r.waves for r in results))
    extra["activations"] = float(sum(r.activations for r in results))


# -- runners -----------------------------------------------------------------
#
# A runner drives one prepared engine under the measurement protocol:
#
#     runner(engine, graph, config, drive, extra) -> RunOutcome
#
# ``drive(program)`` executes a VertexProgram through the plain or the
# recoverable driver depending on ``config.faulted`` (the harness owns
# that closure so RecoveryReports land in ``extra`` uniformly); the
# runner fills ``extra`` with its per-algorithm metrics in place.


def _run_bfs(engine, graph, config, drive, extra) -> RunOutcome:
    from repro.algorithms.bfs import BFSProgram, bfs_multi

    roots = [int(r) for r in run_sources(graph, config, config.bfs_roots)]
    if config.mode == "async":
        from repro.engine.async_mode import AsyncBFSProgram

        results = [
            drive(
                AsyncBFSProgram(
                    root,
                    width=config.async_bucket_width,
                    seed=config.seed,
                )
            )
            for root in roots
        ]
        _async_stats(extra, results)
    elif config.faulted:
        results = [drive(BFSProgram(root)) for root in roots]
    else:
        # the multi-source batch entry: identical program sequence,
        # one engine serving the whole batch
        results = bfs_multi(engine, roots)
    reached = sum(result.reached for result in results)
    extra["avg_reached"] = reached / len(roots)
    if config.sources is not None:
        # explicit sources get per-source answers in the result so
        # a coalesced serving batch can answer every request
        for root, result in zip(roots, results):
            extra[f"reached[{root}]"] = float(result.reached)
    fixpoint = fixpoint_digest(
        *[a for r in results for a in (r.visited, r.depth)]
    )
    return RunOutcome(scale=1.0 / len(roots), fixpoint=fixpoint)


def _run_sssp(engine, graph, config, drive, extra) -> RunOutcome:
    from repro.algorithms.sssp import sssp_multi

    roots = [int(r) for r in run_sources(graph, config, 1)]
    if config.mode == "async":
        from repro.engine.async_mode import async_sssp

        results = [
            async_sssp(
                engine,
                root,
                width=config.async_bucket_width,
                seed=config.seed,
            )
            for root in roots
        ]
        _async_stats(extra, results)
    else:
        results = sssp_multi(engine, roots)
    reached = sum(result.reached for result in results)
    extra["avg_reached"] = reached / len(roots)
    if config.sources is not None:
        for root, result in zip(roots, results):
            extra[f"reached[{root}]"] = float(result.reached)
    fixpoint = fixpoint_digest(*[r.dist for r in results])
    return RunOutcome(scale=1.0 / len(roots), fixpoint=fixpoint)


def _run_cc(engine, graph, config, drive, extra) -> RunOutcome:
    from repro.algorithms.cc import connected_components

    if config.mode == "async":
        from repro.engine.async_mode import async_cc

        result = async_cc(
            engine, width=config.async_bucket_width, seed=config.seed
        )
        _async_stats(extra, [result])
    else:
        result = connected_components(engine)
    extra["components"] = float(result.num_components)
    extra["iterations"] = float(result.iterations)
    return RunOutcome(fixpoint=fixpoint_digest(result.label))


def _run_pagerank(engine, graph, config, drive, extra) -> RunOutcome:
    from repro.algorithms.pagerank import pagerank

    if config.mode == "async":
        from repro.engine.async_mode import async_pagerank

        result = async_pagerank(
            engine, width=config.async_bucket_width, seed=config.seed
        )
        _async_stats(extra, [result])
    else:
        result = pagerank(engine)
        # one activation per active vertex per power iteration — the
        # baseline the async scheduler's selective activation beats
        n_active = int((graph.in_degrees() > 0).sum())
        extra["activations"] = float(result.iterations * n_active)
    extra["iterations"] = float(result.iterations)
    extra["residual"] = float(result.residual)
    # no fixpoint digest: PageRank converges epsilon-bounded, not
    # bit-identically, across schedules (see docs/API.md)
    return RunOutcome()


def _run_kcore(engine, graph, config, drive, extra) -> RunOutcome:
    from repro.algorithms.kcore import KCoreProgram

    result = drive(KCoreProgram(config.kcore_k))
    extra["core_size"] = result.size
    extra["rounds"] = result.rounds
    return RunOutcome()


def _run_mis(engine, graph, config, drive, extra) -> RunOutcome:
    from repro.algorithms.mis import MISProgram

    result = drive(MISProgram(seed=config.seed))
    extra["mis_size"] = result.size
    extra["rounds"] = result.rounds
    return RunOutcome()


def _run_kmeans(engine, graph, config, drive, extra) -> RunOutcome:
    from repro.algorithms.kmeans import kmeans

    result = kmeans(engine, rounds=config.kmeans_rounds, seed=config.seed)
    extra["assigned"] = result.assigned_count
    return RunOutcome()


def _run_sampling(engine, graph, config, drive, extra) -> RunOutcome:
    from repro.algorithms.sampling import sample_neighbors

    result = sample_neighbors(engine, seed=config.seed)
    extra["sampled"] = result.sampled_count
    return RunOutcome()


def _run_scc(engine, graph, config, drive, extra) -> RunOutcome:
    from repro.algorithms.scc import scc

    # FW-BW-Trim drives its own forward/backward engines (serial, so the
    # result is executor-independent); their counters merge into the
    # session engine so the metered run stays complete
    result = scc(
        graph,
        engine_kind=config.engine,
        num_machines=config.machines,
        seed=config.seed,
        collect_metrics=engine,
    )
    extra["components"] = float(result.num_components)
    extra["rounds"] = float(result.rounds)
    return RunOutcome(fixpoint=fixpoint_digest(result.component))


# -- registration ------------------------------------------------------------


def _register_builtins() -> None:
    from repro.algorithms.bfs import bottom_up_signal
    from repro.algorithms.cc import cc_signal
    from repro.algorithms.incremental import relax_depth_signal
    from repro.algorithms.kcore import kcore_signal
    from repro.algorithms.kmeans import kmeans_signal
    from repro.algorithms.mis import mis_signal
    from repro.algorithms.pagerank import pagerank_signal
    from repro.algorithms.sampling import sampling_signal
    from repro.algorithms.scc import scc_reach_signal
    from repro.algorithms.sssp import sssp_signal

    register(AlgorithmSpec(
        name="bfs",
        runner=_run_bfs,
        signals=(bottom_up_signal,),
        resumable=True,
        sourced=True,
        modes=("sync", "async"),
        async_resumable=True,
        extras=("bfs_roots", "sources", "async_bucket_width"),
        description="direction-optimizing BFS, multi-root averaged",
    ))
    register(AlgorithmSpec(
        name="cc",
        runner=_run_cc,
        signals=(cc_signal,),
        modes=("sync", "async"),
        extras=("async_bucket_width",),
        description="connected components by min-label propagation",
    ))
    register(AlgorithmSpec(
        name="kcore",
        runner=_run_kcore,
        signals=(kcore_signal,),
        resumable=True,
        extras=("kcore_k",),
        description="k-core decomposition by iterative peeling",
    ))
    register(AlgorithmSpec(
        name="kmeans",
        runner=_run_kmeans,
        signals=(kmeans_signal,),
        extras=("kmeans_rounds",),
        description="graph k-means label assignment",
    ))
    register(AlgorithmSpec(
        name="mis",
        runner=_run_mis,
        signals=(mis_signal,),
        resumable=True,
        description="maximal independent set (Luby's algorithm)",
    ))
    register(AlgorithmSpec(
        name="pagerank",
        runner=_run_pagerank,
        signals=(pagerank_signal,),
        modes=("sync", "async"),
        extras=("async_bucket_width",),
        description="PageRank: power iteration / async residual push",
    ))
    register(AlgorithmSpec(
        name="sampling",
        runner=_run_sampling,
        signals=(sampling_signal,),
        description="weighted neighbor sampling (prefix sums)",
    ))
    register(AlgorithmSpec(
        name="scc",
        runner=_run_scc,
        signals=(scc_reach_signal,),
        description="strongly connected components (FW-BW-Trim)",
    ))
    register(AlgorithmSpec(
        name="sssp",
        runner=_run_sssp,
        signals=(sssp_signal,),
        sourced=True,
        modes=("sync", "async"),
        extras=("sources", "async_bucket_width"),
        description="shortest paths: Bellman-Ford / delta-stepping",
    ))
    # signal-only entries: driven through Session.mutate +
    # IncrementalBFS/IncrementalCC handles, not Session.run, but their
    # UDFs still go through the verification corpus
    register(AlgorithmSpec(
        name="incremental-bfs",
        signals=(relax_depth_signal,),
        description="incremental BFS repair (Ramalingam-Reps)",
    ))
    register(AlgorithmSpec(
        name="incremental-cc",
        signals=(cc_signal,),
        description="incremental CC repair (affected closure)",
    ))


_register_builtins()

#: runnable algorithm names — the tuple the CLI and docs iterate
ALGORITHMS = algorithm_names()
