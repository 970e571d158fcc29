"""Per-layer metrics of a traced run, and the end-to-end summary.

Layer names follow the ``repro`` modules.  A layer a workload bypasses
reports 0 work; the table marks it as bypassed.  Layer times are
divided by the traced phase's host factor (probe / nominal), like the
end-to-end timings, and are per op unless the name says otherwise.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from perfbench.common import Phase, SetupClock
from perfbench.hostprobe import HostProbe
from perfbench.stats import median, tail
from perfbench.tracing import (
    KernelTally,
    Recorder,
    intersect_length,
    union_length,
)

__all__ = ["END_TO_END", "PER_LAYER", "end_to_end", "per_layer"]

#: (name, unit, better) of every end-to-end metric the JSON line carries
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("sim_time_per_op", "sim_units", "lower"),
    ("comm_bytes_per_op", "bytes", "lower"),
    ("edges_per_op", "edges", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric of a traced run
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("serve.http_ms", "ms", "lower"),
    ("serve.queue_wait_ms", "ms", "lower"),
    ("serve.batch_run_ms", "ms", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.coalesced_share", "ratio", "higher"),
    ("serve.repeat_share", "ratio", "higher"),
    ("serve.gen_lateness_ms", "ms", "lower"),
    ("serve.busy_share", "ratio", "lower"),
    ("api.run_calls", "count", "lower"),
    ("api.self_ms", "ms", "lower"),
    ("analysis.instrument_calls", "count", "lower"),
    ("analysis.instrument_ms", "ms", "lower"),
    ("engine.pull_calls", "count", "lower"),
    ("engine.push_calls", "count", "lower"),
    ("engine.pull_ms", "ms", "lower"),
    ("engine.push_ms", "ms", "lower"),
    ("engine.self_ms", "ms", "lower"),
    ("engine.slot_updates", "count", "lower"),
    ("async.buckets", "count", "lower"),
    ("async.waves", "count", "lower"),
    ("async.activations", "count", "lower"),
    ("async.push_ms", "ms", "lower"),
    ("kernels.batches", "count", "higher"),
    ("kernels.ms", "ms", "lower"),
    ("kernels.edges", "edges", "higher"),
    ("kernels.interp_edge_share", "ratio", "lower"),
    ("exec.maps", "count", "lower"),
    ("exec.map_ms", "ms", "lower"),
    ("exec.parent_share", "ratio", "lower"),
    ("exec.publish_bytes", "bytes", "lower"),
    ("exec.pool_spawns", "count", "lower"),
    ("exec.delta_grows", "count", "lower"),
    ("partition.build_ms", "ms", "lower"),
    ("partition.refresh_ms", "ms", "lower"),
    ("partition.touched_share", "ratio", "lower"),
    ("graph.generate_ms", "ms", "lower"),
    ("graph.apply_ms", "ms", "lower"),
    ("graph.snapshot_ms", "ms", "lower"),
    ("graph.compactions", "count", "lower"),
    ("algorithms.refresh_ms", "ms", "lower"),
    ("algorithms.incremental_share", "ratio", "higher"),
    ("runtime.cost_ms", "ms", "lower"),
    ("runtime.update_bytes", "bytes", "lower"),
    ("runtime.dep_bytes", "bytes", "lower"),
    ("runtime.sync_bytes", "bytes", "lower"),
    ("runtime.push_bytes", "bytes", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("host.factor", "ratio", "lower"),
    ("host.probe_cv", "ratio", "lower"),
    ("host.busy_probe_share", "ratio", "lower"),
    ("host.wall_op_p50_ms", "ms", "lower"),
)

_UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def unit(name: str) -> str:
    return _UNITS[name]


def end_to_end(setups: List[SetupClock], phase: Phase,
               rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run."""
    norm = phase.norm_ms()
    ops = phase.ops
    c = phase.counts
    return {
        "setup_s": median([clock.total() for clock in setups]),
        "op_p50_ms": median(norm) if norm else 0.0,
        "ops_per_s": len(norm) / phase.duration if phase.duration else 0.0,
        "sim_time_per_op": c.sim_time / ops,
        "comm_bytes_per_op": c.total_bytes / ops,
        "edges_per_op": c.edges / ops,
        "peak_rss_mb": rss_mb,
    }


def report_lines(name: str, setups: List[SetupClock], phase: Phase,
                 probe: HostProbe, metrics: Dict[str, float]) -> List[str]:
    """The human-readable table: every end-to-end metric with its unit,
    raw wall time and host factor beside each normalized timing."""
    factor = probe.factor()
    raw = phase.raw_ms()
    out = [f"== {name}: {phase.ledger.attempted} ops, "
           f"host.factor {factor:.3f} (probe cv {probe.cv():.3f}, "
           f"busy probes {probe.busy_share():.3f})"]
    setup_raw = median([clock.raw_total() for clock in setups])
    phases = ", ".join(f"{k} {v:.3f}s" for k, v in setups[-1].norm.items())
    out.append(f"  setup_s            {metrics['setup_s']:12.4f} s      "
               f"(raw {setup_raw:.4f} s; median of {len(setups)}; {phases})")
    out.append(f"  op_p50_ms          {metrics['op_p50_ms']:12.4f} ms     "
               f"(raw {median(raw) if raw else 0.0:.4f} ms, "
               f"host.factor {factor:.3f})")
    tl = tail(phase.norm_ms())
    if tl is None:
        out.append(f"  op_tail_ms         {'omitted':>12}        "
                   f"({len(phase.norm_ms())} ops cannot support a "
                   "percentile above the median)")
    else:
        pct, value, n = tl
        raw_tail = tail(raw)
        out.append(f"  op_tail_ms         {value:12.4f} ms     "
                   f"(p{pct:g} of {n} samples; raw "
                   f"{raw_tail[1] if raw_tail else 0.0:.4f} ms)")
    raw_rate = len(raw) / phase.raw_duration if phase.raw_duration else 0.0
    out.append(f"  ops_per_s          {metrics['ops_per_s']:12.4f} 1/s    "
               f"(raw {raw_rate:.4f} 1/s)")
    led = phase.ledger
    out.append(f"  fail_ratio         {led.fail_ratio:12.4f} ratio  "
               f"({led.to_dict()})")
    for key in ("sim_time_per_op", "comm_bytes_per_op", "edges_per_op",
                "peak_rss_mb"):
        out.append(f"  {key:<18} {metrics[key]:12.4f} {unit(key)}")
    for note in led.notes:
        out.append(f"  ! {note}")
    return out


def per_layer(rec: Recorder, setup_rec: Recorder,
              tally: KernelTally, phase: Phase, clock: SetupClock,
              probe: HostProbe, untraced: Phase,
              untraced_probe: HostProbe) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run."""
    ops = phase.ops
    factor = probe.factor() or 1.0
    kids = rec.children()

    def ms(total_seconds: float) -> float:
        return total_seconds * 1e3 / factor / ops

    def calls(name: str) -> float:
        return len(rec.named(name)) / ops

    m: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    serve = phase.info.get("serve")
    if serve:
        for key, value in serve.items():
            m["serve." + key] = value / factor if key.endswith("_ms") \
                else value

    m["api.run_calls"] = calls("api.run")
    m["api.self_ms"] = ms(rec.total_self("api.run", kids)
                          + rec.total_self("api.mutate", kids))
    m["analysis.instrument_calls"] = calls("analysis.instrument")
    m["analysis.instrument_ms"] = ms(rec.total("analysis.instrument"))

    pulls, pushes = rec.named("engine.pull"), rec.named("engine.push")
    m["engine.pull_calls"] = len(pulls) / ops
    m["engine.push_calls"] = len(pushes) / ops
    m["engine.pull_ms"] = ms(sum(s.duration for s in pulls))
    m["engine.push_ms"] = ms(sum(s.duration for s in pushes))
    engine_self = 0.0
    for s in pulls + pushes:
        maps = [(c.start, c.end) for c in kids.get(s.id, ())
                if c.name == "exec.map"]
        engine_self += s.duration - union_length(maps)
    m["engine.self_ms"] = ms(engine_self)
    m["engine.slot_updates"] = sum(
        s.attrs.get("updates", 0) for s in pulls + pushes) / ops

    async_tally = phase.info.get("async")
    if async_tally is not None:
        m["async.buckets"] = async_tally.get("async_buckets", 0.0) / ops
        m["async.waves"] = async_tally.get("async_waves", 0.0) / ops
        m["async.activations"] = async_tally.get("activations", 0.0) / ops
        m["async.push_ms"] = m["engine.push_ms"]

    m["kernels.batches"] = tally.batches / ops
    m["kernels.ms"] = ms(tally.seconds)
    m["kernels.edges"] = tally.edges / ops
    phase_edges = sum(s.attrs.get("edges", 0) for s in pulls + pushes)
    if phase_edges:
        m["kernels.interp_edge_share"] = 1.0 - tally.edges / phase_edges

    op_spans = rec.named("op")
    op_total = sum(s.duration for s in op_spans)
    map_total = rec.total("exec.map")
    m["exec.maps"] = calls("exec.map")
    m["exec.map_ms"] = ms(map_total)
    if op_total:
        m["exec.parent_share"] = 1.0 - map_total / op_total
    execs = phase.info.get("exec", {})
    m["exec.publish_bytes"] = execs.get("publish_bytes", 0) / ops
    m["exec.pool_spawns"] = execs.get("spawns", 0)
    m["exec.delta_grows"] = execs.get("delta_grows", 0)

    m["partition.build_ms"] = setup_rec.total("partition.build") * 1e3 \
        / factor
    m["partition.refresh_ms"] = ms(rec.total("partition.refresh"))
    touched = [s.attrs["touched"] for s in rec.named("partition.refresh")]
    if touched:
        m["partition.touched_share"] = statistics.fmean(touched)

    generate = clock.norm.get("generate")
    m["graph.generate_ms"] = generate * 1e3 if generate is not None else \
        setup_rec.total("graph.generate") * 1e3 / factor
    m["graph.apply_ms"] = ms(rec.total("graph.apply"))
    m["graph.snapshot_ms"] = ms(rec.total("graph.snapshot"))
    m["graph.compactions"] = sum(
        1 for s in rec.named("graph.apply") if s.attrs.get("compacted"))

    refreshes = rec.named("algorithms.refresh")
    m["algorithms.refresh_ms"] = ms(sum(s.duration for s in refreshes))
    if refreshes:
        m["algorithms.incremental_share"] = sum(
            1 for s in refreshes if s.attrs.get("mode") != "scratch"
        ) / len(refreshes)

    m["runtime.cost_ms"] = ms(rec.total("runtime.cost"))
    c = phase.counts
    for tag in ("update_bytes", "dep_bytes", "sync_bytes", "push_bytes"):
        m["runtime." + tag] = getattr(c, tag) / ops

    traced_p50 = median(phase.norm_ms()) if phase.norm_ms() else 0.0
    untraced_p50 = median(untraced.norm_ms()) if untraced.norm_ms() else 0.0
    if untraced_p50:
        m["obs.trace_overhead"] = traced_p50 / untraced_p50 - 1.0
    m["trace.unattributed_share"] = unattributed_share(rec)

    m["host.factor"] = untraced_probe.factor()
    m["host.probe_cv"] = untraced_probe.cv()
    m["host.busy_probe_share"] = untraced_probe.busy_share()
    raw = untraced.raw_ms()
    m["host.wall_op_p50_ms"] = median(raw) if raw else 0.0
    return m


def unattributed_share(rec: Recorder) -> float:
    """Share of op time no layer span covers.

    Op spans are the benchmark's own (one per closed-loop op, or one
    per open-loop request on the client side); layer spans are every
    top-level span that is not an op -- in an in-process daemon they
    sit on the server's threads, outside the client's span stack.
    """
    by_id = {s.id: s for s in rec.spans}
    ops = [(s.start, s.end) for s in rec.spans if s.name == "op"]
    if not ops:
        return 0.0
    layers = []
    for s in rec.spans:
        if s.name == "op":
            continue
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is None or parent.name == "op":
            layers.append((s.start, s.end))
    total = union_length(ops)
    return 1.0 - intersect_length(ops, layers) / total if total else 0.0
