"""The benchmark: four workloads, host-normalized timings, layer traces.

Run from the root of a checkout (pure Python; nothing is built):

    python3 perfbench/run.py --workload serve_query --seed 1 \\
        --seconds 15 --trace 0

prints every end-to-end metric by name and unit, with raw wall time
and the host factor beside each normalized timing, and as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 1`` makes a separate traced run and reports the per-layer
metrics instead.  ``--workload all`` runs every workload in turn;
``--steady N`` runs one workload N times on consecutive seeds and
prints each metric's median, quartiles and spread against its bound
from ``BENCHMARK.json``.

Every output is checked against an independent reference outside the
timed windows, and after every run no new ``/dev/shm`` segment and no
daemon, pool-worker or probe process may survive.  A failed check or a
leak makes the exit code 1.  On every path out, the benchmark waits
for each process it started (orphaned descendants included) to end,
and kills those that do not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_query", "analytics_batch", "mutate_stream", "async_drain")
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPS = 3
#: wall-clock cap on one child run in ``all``/``--steady`` mode
CHILD_TIMEOUT = 600


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _workload(name: str, seed: int, seconds: float):
    import importlib

    module = importlib.import_module(f"perfbench.workloads.{name}")
    return module.Workload(seed, seconds)


def run_once(name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import layers
    from perfbench.common import SetupClock
    from perfbench.hostprobe import HostProbe, IdleGuard, ProbeHelper
    from perfbench.procs import LeakCheck, descendants, peak_rss_mb

    nominal = _load_json(os.path.join(HERE, "RECORD.json"))["probe"][
        "nominal_s"]
    leaks = LeakCheck()
    wl = _workload(name, seed, seconds)
    helpers = [ProbeHelper() for _ in range(getattr(wl, "cpus", 1) - 1)]
    mine = {h.proc.pid for h in helpers}

    def program_pids():
        return [p for p in wl.pids() if p not in mine]

    guard = IdleGuard(program_pids)

    def probe():
        return HostProbe(nominal, guard, helpers=helpers)

    ledgers = []
    try:
        setups = []
        for rep in range(1 if trace else SETUP_REPS):
            if setups:
                wl.teardown()
            setups.append(SetupClock(probe()))
            wl.setup(setups[-1])
        timed_probe = probe()
        phase = wl.timed(timed_probe)
        rss_pids = program_pids() if getattr(wl, "out_of_process", False) \
            else [os.getpid()] + [p for p in descendants() if p not in mine]
        rss = peak_rss_mb(rss_pids)
        wl.check(phase)
        wl.teardown()
        ledgers.append(phase.ledger)
        metrics = layers.end_to_end(setups, phase, rss)
        lines = layers.report_lines(name, setups, phase, timed_probe,
                                    metrics)
        if trace:
            metrics, traced_ledger = _traced_run(wl, probe, phase,
                                                 timed_probe)
            ledgers.append(traced_ledger)
            lines = _layer_lines(name, metrics)
    finally:
        wl.teardown()
        for helper in helpers:
            helper.close()
    found = leaks.leaks()
    for line in lines:
        print(line)
    for kind, items in found.items():
        print(f"  ! leak: {kind}: {items}")
    print("detail: " + json.dumps({
        "workload": name, "seed": seed, "ops": phase.ledger.attempted,
        "op_p50_raw_ms": statistics.median(phase.raw_ms())
        if phase.raw_ms() else 0.0,
        "setup_raw_s": statistics.median(c.raw_total() for c in setups),
        "host_factor": timed_probe.factor(),
        "probe_cv": timed_probe.cv(),
        "fail_ratio": phase.ledger.fail_ratio,
        "serve_busy_share": phase.info.get("serve", {}).get("busy_share"),
        "daemon_cpu_share": phase.info.get("daemon_cpu_share"),
        "ledger": phase.ledger.to_dict(),
        "leaks": found,
    }))
    failed = sum(led.bad for led in ledgers)
    correct = failed == 0 and not found
    print(json.dumps({
        "correct": correct,
        "attempted": sum(led.attempted for led in ledgers),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": layers.unit(k)}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def _traced_run(wl, probe, untraced, untraced_probe):
    """Set up again and repeat the timed phase with every layer wrapped.

    Returns the per-layer metrics and the traced phase's ledger; its
    outputs are checked like the untraced run's.
    """
    from perfbench import layers
    from perfbench.common import SetupClock
    from perfbench.tracing import KernelTally, LayerPatches, Recorder

    rec, setup_rec, tally = Recorder(), Recorder(), KernelTally()
    traced_probe = probe()
    with LayerPatches(rec):
        clock = SetupClock(probe())
        wl.setup(clock, tally)
        setup_rec.spans, rec.spans = rec.spans, []
        tally.reset()
        traced = wl.timed(traced_probe, rec)
    wl.check(traced)
    wl.teardown()
    metrics = layers.per_layer(rec, setup_rec, tally, traced, clock,
                               traced_probe, untraced, untraced_probe)
    return metrics, traced.ledger


def _layer_lines(name, metrics):
    """The per-layer table; a layer with no work at all is bypassed."""
    from perfbench.layers import unit

    busy = {key.split(".", 1)[0] for key, value in metrics.items() if value}
    out = [f"== {name}: per-layer metrics (traced run; per op unless "
           "named per run or set-up)"]
    for key, value in metrics.items():
        mark = "" if key.split(".", 1)[0] in busy else "  (bypassed)"
        out.append(f"  {key:<30} {value:14.4f} {unit(key)}{mark}")
    return out


def _child(name: str, seed: int, seconds: float, trace: int):
    """Run one workload in a child process; (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT,
    )
    return proc.returncode, proc.stdout


def run_all(seed: int, seconds: float, trace: int) -> int:
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        code, out = _child(name, seed, seconds, trace)
        lines = out.strip().splitlines()
        for line in lines[:-1]:
            if not line.startswith("detail: "):
                print(line)
        status = status or code
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= bool(result["correct"])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return status or (0 if combined["correct"] else 1)


def run_steady(name: str, runs: int, seed: int, seconds: float) -> int:
    """Run one workload ``runs`` times and print each metric's spread."""
    from perfbench.stats import spread

    spec = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, details, status = {}, [], 0
    for k in range(runs):
        code, out = _child(name, seed + k, seconds, 0)
        lines = out.strip().splitlines()
        status = status or code
        result = json.loads(lines[-1])
        details.append(json.loads(next(
            ln for ln in lines if ln.startswith("detail: "))[8:]))
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
        print(f"run {k + 1}/{runs} seed {seed + k}: exit {code}, "
              f"op_p50_ms {result['metrics']['op_p50_ms']['value']:.3f}, "
              f"host.factor {details[-1]['host_factor']:.3f}", flush=True)
    summary = {}
    print(f"== steadiness of {name}: {runs} runs, seeds {seed}.."
          f"{seed + runs - 1}")
    for key, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        sp = spread(vals)
        bound = bounds.get(key)
        verdict = "" if bound is None else (
            "ok" if sp <= bound / 3 else "WITHIN BOUND" if sp <= bound
            else "TOO NOISY")
        summary[key] = {"median": med, "q1": q1, "q3": q3, "spread": sp,
                        "bound": bound}
        print(f"  {key:<18} median {med:14.4f}  q1 {q1:14.4f}  "
              f"q3 {q3:14.4f}  spread {sp:.4f}  bound {bound}  {verdict}")
    raw = [d["op_p50_raw_ms"] for d in details]
    norm = values["op_p50_ms"]
    cv = {
        "op_p50_raw_cv": statistics.pstdev(raw) / statistics.fmean(raw),
        "op_p50_norm_cv": statistics.pstdev(norm) / statistics.fmean(norm),
        "host_factor_median": statistics.median(
            d["host_factor"] for d in details),
    }
    print(f"  op_p50 across runs: raw cv {cv['op_p50_raw_cv']:.4f}, "
          f"normalized cv {cv['op_p50_norm_cv']:.4f}")
    print(json.dumps({"workload": name, "runs": runs, "seed": seed,
                      "metrics": summary, "noise": cv}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run the workload N times on seeds "
                        "seed..seed+N-1 and report each metric's spread")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources under {ROOT}/src/repro; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.procs import become_subreaper, reap_children, \
        stop_resource_tracker

    become_subreaper()
    try:
        return _dispatch(parser, args)
    finally:
        stop_resource_tracker()
        reap_children()


def _dispatch(parser, args) -> int:
    if args.steady:
        if args.workload == "all":
            parser.error("--steady takes one workload")
        return run_steady(args.workload, args.steady, args.seed,
                          args.seconds)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        return run_once(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    except Exception:  # noqa: BLE001 - report, never print a result
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
