"""Async priority-bucket scheduler vs the synchronous supersteps.

Runs the async-capable algorithms on a skewed R-MAT under both
execution modes and reports what the redesign promises:

* **equivalence** — BFS, SSSP, and CC are monotone, so the async
  fixpoint digest must equal the synchronous one bit for bit; the run
  exits nonzero on the first mismatch;
* **selective activation** — delta-PageRank at matched accuracy
  (sync power iteration to ``--pr-tolerance``, async residual push to
  the matching ``stop_mass``) must spend *fewer* vertex activations
  than the power iteration, and its L1 distance to a high-precision
  reference must stay within the documented
  :attr:`~repro.engine.async_mode.AsyncPageRankResult.epsilon` bound;
* **wall clock** — async delta-PageRank must finish in no more wall
  time than the synchronous power iteration it replaces (its simulated
  time is recorded beside it, and is still several times sync's: each
  activation wave is one engine phase);
* **determinism** — one seeded async run per executor kind, digests
  compared bit for bit.

``--smoke`` is the CI entry point: a small graph, every gate armed,
and the JSON report written for the artifact upload.

Writes ``benchmarks/results/BENCH_async.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.api import RunConfig, Session
from repro.algorithms import pagerank
from repro.engine import make_engine
from repro.engine.async_mode import async_pagerank
from repro.graph.generators import random_weights, rmat

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: the monotone algorithms whose async fixpoint must match sync's
EXACT_ALGORITHMS = ("bfs", "cc", "sssp")


def run_mode(graph, algorithm, mode, args, executor="serial"):
    config = RunConfig(
        engine=args.engine,
        algorithm=algorithm,
        machines=args.machines,
        mode=mode,
        seed=args.seed,
        sources=(args.root,) if algorithm in ("bfs", "sssp") else None,
        executor=executor,
        workers=args.workers,
    )
    t0 = time.perf_counter()
    with Session(graph, config) as session:
        result = session.run()
    return result, time.perf_counter() - t0


def bench_exact(graph, weighted, args):
    """Sync-vs-async rows for the bit-identical algorithms."""
    rows = []
    failures = []
    for algorithm in EXACT_ALGORITHMS:
        g = weighted if algorithm == "sssp" else graph
        sync, sync_wall = run_mode(g, algorithm, "sync", args)
        awr, async_wall = run_mode(g, algorithm, "async", args)
        ok = awr.fixpoint == sync.fixpoint
        if not ok:
            failures.append({
                "algorithm": algorithm,
                "sync_fixpoint": sync.fixpoint,
                "async_fixpoint": awr.fixpoint,
            })
        rows.append({
            "algorithm": algorithm,
            "fixpoint_match": ok,
            "sync_simulated_time": sync.simulated_time,
            "async_simulated_time": awr.simulated_time,
            "sync_wall_seconds": sync_wall,
            "async_wall_seconds": async_wall,
            "async_buckets": awr.extra["async_buckets"],
            "async_waves": awr.extra["async_waves"],
            "async_activations": awr.extra["activations"],
        })
    return rows, failures


def bench_pagerank(graph, args):
    """Matched-accuracy activation economics for delta-PageRank."""
    engine = make_engine(args.engine, graph, args.machines)
    reference = pagerank(engine, iterations=2000, tolerance=1e-15)

    engine = make_engine(args.engine, graph, args.machines)
    t0 = time.perf_counter()
    sync = pagerank(engine, iterations=1000, tolerance=args.pr_tolerance)
    sync_wall = time.perf_counter() - t0
    sync_sim = engine.execution_time()
    n_active = int((graph.in_degrees() > 0).sum())
    sync_activations = sync.iterations * n_active
    sync_l1 = float(np.abs(sync.rank - reference.rank).sum())

    engine = make_engine(args.engine, graph, args.machines)
    t0 = time.perf_counter()
    awr = async_pagerank(
        engine, seed=args.seed, stop_mass=args.pr_tolerance
    )
    async_wall = time.perf_counter() - t0
    async_sim = engine.execution_time()
    async_l1 = float(np.abs(awr.rank - reference.rank).sum())

    return {
        "n_active": n_active,
        "pr_tolerance": args.pr_tolerance,
        "sync_iterations": sync.iterations,
        "sync_activations": sync_activations,
        "sync_l1_error": sync_l1,
        "sync_wall_seconds": sync_wall,
        "sync_simulated_time": sync_sim,
        "async_buckets": awr.buckets,
        "async_waves": awr.waves,
        "async_activations": awr.activations,
        "async_l1_error": async_l1,
        "async_epsilon_bound": awr.epsilon,
        "async_wall_seconds": async_wall,
        "async_simulated_time": async_sim,
        "activation_ratio": awr.activations / sync_activations,
        "fewer_activations": awr.activations < sync_activations,
        "within_epsilon": async_l1 <= awr.epsilon,
        "wall_ratio": async_wall / sync_wall,
        "async_not_slower": async_wall <= sync_wall,
    }


def bench_determinism(graph, args):
    """Seeded async digests across executors, compared bit for bit."""
    digests = {}
    for executor in args.executors:
        result, _ = run_mode(
            graph, "cc", "async", args, executor=executor
        )
        digests[executor] = result.digest()
    return {
        "algorithm": "cc",
        "digests": digests,
        "identical": len(set(digests.values())) == 1,
    }


def print_report(report):
    graph = report["graph"]
    print(
        f"async scheduler on skewed R-MAT |V|={graph['num_vertices']} "
        f"|E|={graph['num_edges']} "
        f"(a={graph['a']}, {report['config']['machines']} machines)"
    )
    header = (
        f"{'algorithm':>10} {'fixpoint':>9} {'buckets':>8} {'waves':>7} "
        f"{'activations':>12} {'t_sync':>9} {'t_async':>9}"
    )
    print(header)
    print("-" * len(header))
    for r in report["exact"]:
        print(
            f"{r['algorithm']:>10} "
            f"{'match' if r['fixpoint_match'] else 'DIVERGED':>9} "
            f"{int(r['async_buckets']):>8} {int(r['async_waves']):>7} "
            f"{int(r['async_activations']):>12} "
            f"{r['sync_simulated_time']:>9.1f} "
            f"{r['async_simulated_time']:>9.1f}"
        )
    pr = report["pagerank"]
    print("-" * len(header))
    print(
        f"pagerank: sync {pr['sync_activations']} activations "
        f"({pr['sync_iterations']} sweeps x {pr['n_active']} active) "
        f"vs async {pr['async_activations']} "
        f"({pr['activation_ratio']:.2f}x)"
    )
    print(
        f"pagerank wall: sync {pr['sync_wall_seconds']:.3f}s vs async "
        f"{pr['async_wall_seconds']:.3f}s ({pr['wall_ratio']:.2f}x); "
        f"simulated: sync {pr['sync_simulated_time']:.1f} vs async "
        f"{pr['async_simulated_time']:.1f}"
    )
    print(
        f"pagerank error: sync L1 {pr['sync_l1_error']:.2e}, "
        f"async L1 {pr['async_l1_error']:.2e} "
        f"(bound {pr['async_epsilon_bound']:.2e})"
    )
    det = report["determinism"]
    print(
        f"determinism ({'/'.join(det['digests'])}): "
        f"{'identical' if det['identical'] else 'DIVERGED'}"
    )
    print(f"gate: {report['gate']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=12,
                        help="rmat scale (default 12)")
    parser.add_argument("--edge-factor", type=int, default=4)
    parser.add_argument("--skew", type=float, default=0.7,
                        help="rmat 'a' parameter (default 0.7)")
    parser.add_argument("--engine", default="symple",
                        choices=("symple", "gemini", "single"))
    parser.add_argument("--machines", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--executors", nargs="+",
                        default=("serial", "thread", "process"))
    parser.add_argument("--root", type=int, default=-1,
                        help="BFS/SSSP root (-1: highest-degree vertex)")
    parser.add_argument("--pr-tolerance", type=float, default=1e-6)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI configuration, every gate armed")
    args = parser.parse_args(argv)

    if args.smoke:
        args.scale = min(args.scale, 10)
        args.executors = ("serial", "thread")

    side = (1.0 - args.skew) / 3.0
    graph = rmat(
        scale=args.scale, edge_factor=args.edge_factor,
        a=args.skew, b=side, c=side, seed=args.seed,
    )
    weighted = random_weights(graph, seed=args.seed)
    if args.root < 0 or graph.out_degrees()[args.root] == 0:
        args.root = int(np.argmax(graph.out_degrees()))

    exact_rows, failures = bench_exact(graph, weighted, args)
    pr = bench_pagerank(graph, args)
    det = bench_determinism(graph, args)

    ok = (
        not failures
        and pr["fewer_activations"]
        and pr["within_epsilon"]
        and pr["async_not_slower"]
        and det["identical"]
    )
    report = {
        "bench": "async",
        "graph": {
            "scale": args.scale,
            "edge_factor": args.edge_factor,
            "a": args.skew,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "seed": args.seed,
        },
        "config": {
            "engine": args.engine,
            "machines": args.machines,
            "seed": args.seed,
            "root": args.root,
            "cpu_count": os.cpu_count(),
        },
        "exact": exact_rows,
        "pagerank": pr,
        "determinism": det,
        "failures": failures,
        "gate": "ok" if ok else "FAILED",
    }
    print_report(report)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_async.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")

    if not ok:
        print("FAIL: async gates did not hold", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
