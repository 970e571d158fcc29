"""``serve_query``: an open loop against the ``repro serve`` daemon.

One generator process sends single-source BFS queries on a seeded
Poisson schedule over at most two keep-alive connections to a daemon
running as its own process.  About a fifth of the sources come from a
small hot pool, so repeats and coalescing occur.  The rate is light,
so latency is mostly service time, and short runs make per-request
overhead (HTTP/JSON, queue, batch planning, config validation, engine
build, re-instrumentation, slot apply) dominate.  Latency is timed
from each request's scheduled send time.

The traced run hosts the daemon in-process (``ServeApp`` on a
``ServerThread``) so the layer wrappers apply; its extra interpreter
lock contention shows in ``obs.trace_overhead``.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import selectors
import signal
import subprocess
import sys
import threading
import time
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from perfbench.common import OpSample, Phase, SetupClock
from perfbench.hostprobe import cpu_ticks
from perfbench.procs import descendants
from perfbench.reference import Reference
from perfbench.schedules import arrivals, op_count

NAME = "serve_query"
GRAPH = "q"
SPEC = "rmat:scale=10,edge_factor=16,seed=11"
MACHINES = 8
#: requests per second of the open loop, light enough that the daemon
#: is busy well under a third of the time even in the slow host regime
RATE = 5.0
MIN_OPS = 60
CONNECTIONS = 2
#: a reply later than this after its scheduled send counts as late
LATE_LIMIT = 5.0
WARMUP_QUERIES = 3
#: least gap between two idle probes
PROBE_GAP = 0.02
START_TIMEOUT = 60.0


def query_body(source: int) -> bytes:
    return json.dumps({
        "graph": GRAPH, "algorithm": "bfs", "machines": MACHINES,
        "sources": [int(source)],
    }).encode("utf-8")


def classify(status: Optional[int], latency: float) -> str:
    """Outcome of one open-loop request (see :class:`stats.Ledger`)."""
    if status in (429, 503):
        return "refused"
    if status == 504:
        return "late"
    if status != 200:
        return "failed"
    return "late" if latency > LATE_LIMIT else "ok"


class _Sender(threading.Thread):
    """One keep-alive connection sending the requests handed to it."""

    def __init__(self, port: int, on_done, recorder=None) -> None:
        super().__init__(daemon=True)
        self.port = port
        self.on_done = on_done
        self.recorder = recorder
        self.jobs: "queue.Queue" = queue.Queue()

    def _connect(self):
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=4 * LATE_LIMIT)

    def run(self) -> None:
        conn = self._connect()
        try:
            while True:
                job = self.jobs.get()
                if job is None:
                    return
                i, source = job
                sent = perf_counter()
                status, payload = None, None
                try:
                    if self.recorder is None:
                        status, payload = _post(conn, query_body(source))
                    else:
                        with self.recorder.span("op", op=i):
                            status, payload = _post(conn, query_body(source))
                except (OSError, http.client.HTTPException,
                        ValueError) as exc:
                    payload = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = self._connect()
                self.on_done(self, i, sent, perf_counter(), status, payload)
        finally:
            conn.close()


def _post(conn, body: bytes):
    conn.request("POST", "/query", body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def _get(port: int, path: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


def histogram_totals(text: str, name: str):
    """``(sum, count)`` of an unlabelled Prometheus histogram."""
    total = count = 0.0
    for line in text.splitlines():
        if line.startswith(name + "_sum "):
            total = float(line.split()[1])
        elif line.startswith(name + "_count "):
            count = float(line.split()[1])
    return total, count


class Workload:
    name = NAME
    #: the program is the daemon process, not this one
    out_of_process = True

    def __init__(self, seed: int, seconds: float) -> None:
        from repro.serve.registry import parse_graph_spec

        self.graph = parse_graph_spec(SPEC)
        candidates = np.flatnonzero(self.graph.out_degrees() > 0)
        self.ops = arrivals(seed, candidates,
                            op_count(seconds, RATE, MIN_OPS), RATE)
        self.warm = [int(v) for v in candidates[:WARMUP_QUERIES]]
        #: the daemon may run on any CPU, so the probe samples each
        self.cpus = os.cpu_count() or 1
        self.proc: Optional[subprocess.Popen] = None
        self.server = None
        self.port = 0

    # -- daemon lifecycle -------------------------------------------------

    def setup(self, clock: SetupClock, tally=None) -> None:
        with clock.phase("start"):
            if tally is None:
                self._spawn()
            else:
                self._host_in_process(tally)
        with clock.phase("warmup"):
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=4 * LATE_LIMIT)
            try:
                for source in self.warm:
                    status, payload = _post(conn, query_body(source))
                    if status != 200:
                        raise RuntimeError(f"warm-up query failed: {payload}")
            finally:
                conn.close()

    def _spawn(self) -> None:
        root = os.getcwd()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH"))
            if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--graph", f"{GRAPH}={SPEC}", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            cwd=root,
        )
        deadline = time.monotonic() + START_TIMEOUT
        seen = []
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while not self.port:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(timeout=left):
                    break
                line = self.proc.stdout.readline().decode("utf-8", "replace")
                if not line:
                    break
                seen.append(line.strip())
                if "listening on http://" in line:
                    address = line.split("http://", 1)[1].split()[0]
                    self.port = int(address.rsplit(":", 1)[1])
        if not self.port:
            self.teardown()
            raise RuntimeError(f"repro serve did not start: {seen[-5:]}")
        while _get(self.port, "/readyz")[0] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve never became ready")
            time.sleep(0.01)

    def _host_in_process(self, tally) -> None:
        from repro.serve import GraphRegistry, ServeApp, ServerThread
        from repro.serve.metrics import ServeMetrics

        class TallyMetrics(ServeMetrics):
            def hub(self):
                hub = super().hub()
                hub.register(tally)
                return hub

        registry = GraphRegistry()
        registry.load(GRAPH, SPEC)
        app = ServeApp(registry, metrics=TallyMetrics())
        self.server = ServerThread(app, port=0).start()
        self.port = self.server.port

    def pids(self) -> List[int]:
        if self.proc is None:
            return []
        return [self.proc.pid] + descendants(self.proc.pid)

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.proc is not None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
            self.proc = None
        self.port = 0

    # -- timed phase: the open loop ----------------------------------------

    def timed(self, probe, recorder=None) -> Phase:
        phase = Phase()
        done: Dict[int, tuple] = {}
        free: List[_Sender] = []
        cond = threading.Condition()
        inflight = [0]

        def on_done(sender, i, sent, end, status, payload):
            with cond:
                done[i] = (sent, end, status, payload)
                inflight[0] -= 1
                free.append(sender)
                cond.notify_all()

        senders = [_Sender(self.port, on_done, recorder)
                   for _ in range(min(CONNECTIONS, os.cpu_count() or 1))]
        for s in senders:
            s.start()
        free.extend(senders)
        metrics_before = _get(self.port, "/metrics")[1]
        ticks_before = self._daemon_ticks()
        try:
            t = perf_counter()
            probe.measure()
            probe_wall = perf_counter() - t
            start = perf_counter() + 0.05
            dues = []
            last_probe = 0.0
            for i, arrival in enumerate(self.ops):
                due = start + arrival.due
                dues.append(due)
                while True:
                    now = perf_counter()
                    if now >= due:
                        break
                    with cond:
                        idle = inflight[0] == 0
                    if idle and due - now > 2 * probe_wall + 0.002 \
                            and now - last_probe >= PROBE_GAP:
                        probe.measure()
                        last_probe = perf_counter()
                        probe_wall = last_probe - now
                    else:
                        time.sleep(min(0.002, max(0.0, due - now)))
                with cond:
                    while not free:
                        cond.wait()
                    sender = free.pop()
                    inflight[0] += 1
                sender.jobs.put((i, arrival.source))
            with cond:
                while inflight[0]:
                    cond.wait()
            probe.measure()
        finally:
            for s in senders:
                s.jobs.put(None)
            for s in senders:
                s.join(timeout=30)
        ticks_after = self._daemon_ticks()
        metrics_after = _get(self.port, "/metrics")[1]
        wall = self._summarize(phase, probe, dues, done, start)
        serve = phase.info["serve"]
        serve.update(_histogram_deltas(metrics_before, metrics_after))
        busy = histogram_totals(metrics_after, _RUN_SECONDS)[0] \
            - histogram_totals(metrics_before, _RUN_SECONDS)[0]
        serve["busy_share"] = busy / wall
        if ticks_before is not None and ticks_after is not None:
            phase.info["daemon_cpu_share"] = (ticks_after - ticks_before) \
                / os.sysconf("SC_CLK_TCK") / wall
        return phase

    def _daemon_ticks(self) -> Optional[int]:
        """CPU ticks the daemon process has used; None in-process."""
        return cpu_ticks(self.proc.pid) if self.proc is not None else None

    def _summarize(self, phase: Phase, probe, dues, done, start) -> float:
        """Fill ``phase`` from the replies; returns the schedule's wall
        time, from its start to the last reply."""
        http_ms, lateness, batch, coalesced = [], [], [], []
        seen = set()
        repeats = 0
        for i, arrival in enumerate(self.ops):
            repeats += arrival.source in seen
            seen.add(arrival.source)
            sent, end, status, payload = done[i]
            latency = end - dues[i]
            sample = OpSample(latency, probe.adjacent(dues[i], end),
                              probe.nominal)
            phase.samples[i] = sample
            outcome = classify(status, latency)
            note = "" if outcome == "ok" else f"HTTP {status}: {payload}"
            phase.ledger.record(i, outcome, note[:160])
            lateness.append(sent - dues[i])
            if status == 200:
                phase.outputs[i] = payload
                http_ms.append((end - sent - payload["latency_seconds"]) * 1e3)
                batch.append(payload["batch_size"])
                coalesced.append(bool(payload["coalesced"]))
        # the open loop's own length is set by its arrival schedule, so
        # ops_per_s counts completed requests per second of their summed
        # (normalized) time in the system, as a closed loop does
        phase.duration = sum(phase.norm_ms()) / 1e3
        phase.raw_duration = sum(phase.raw_ms()) / 1e3
        n = len(self.ops)
        phase.info["serve"] = {
            "http_ms": _mean(http_ms),
            "gen_lateness_ms": _mean(lateness) * 1e3,
            "batch_size_mean": _mean(batch),
            "coalesced_share": _mean(coalesced),
            "repeat_share": repeats / n,
        }
        return max(done[i][1] for i in done) - start

    # -- output checks and count replay (outside timed windows) -----------

    def check(self, phase: Phase) -> None:
        from repro import RunConfig, Session
        from repro.algorithms.registry import fixpoint_digest

        src, dst = self.graph.edge_array()
        ref = Reference(self.graph.num_vertices, src, dst)
        replays = {}
        batches = {}
        with Session(self.graph) as session:
            for i, payload in sorted(phase.outputs.items()):
                source = self.ops[i].source
                if source not in replays:
                    config = RunConfig(algorithm="bfs", machines=MACHINES,
                                       sources=(source,))
                    result = session.run(config)
                    expected = fixpoint_digest(*ref.bfs_arrays(source))
                    replays[source] = (config, result,
                                       result.fixpoint == expected)
                config, result, matches_scipy = replays[source]
                phase.counts.add_result(result)
                if not matches_scipy:
                    phase.ledger.mark_wrong(i, "bfs depths differ from scipy")
                key = f"reached[{source}]"
                if payload["coalesced"]:
                    # the batch's fixpoint covers every source it ran
                    ran = tuple(payload["executed_config"]["sources"])
                    if ran not in batches:
                        batches[ran] = fixpoint_digest(*[
                            a for s in ran for a in ref.bfs_arrays(s)])
                    if payload["result"]["fixpoint"] != batches[ran]:
                        phase.ledger.mark_wrong(
                            i, "coalesced bfs depths differ from scipy")
                    if payload["result"]["extra"].get(key) != \
                            result.extra[key]:
                        phase.ledger.mark_wrong(
                            i, "coalesced reach differs from replay")
                elif payload["digest"] != result.digest() or \
                        payload["executed_config"] != config.to_dict():
                    phase.ledger.mark_wrong(i, "digest differs from replay")


_RUN_SECONDS = "repro_serve_run_seconds"


def _histogram_deltas(before: str, after: str) -> Dict[str, float]:
    out = {}
    for key, name in (("queue_wait_ms", "repro_serve_queue_wait_seconds"),
                      ("batch_run_ms", _RUN_SECONDS)):
        s0, c0 = histogram_totals(before, name)
        s1, c1 = histogram_totals(after, name)
        out[key] = (s1 - s0) / (c1 - c0) * 1e3 if c1 > c0 else 0.0
    return out


def _mean(values) -> float:
    values = list(values)
    return float(sum(values)) / len(values) if values else 0.0
