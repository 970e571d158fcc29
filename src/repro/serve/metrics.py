"""Service metrics: QPS, queue depth, batch sizes, latency percentiles.

:class:`ServeMetrics` is the single sink every serving-layer component
reports into.  It is ObsHub-backed: the serve-level counters live in an
:class:`~repro.obs.metrics.MetricsRegistry` shared with per-worker
:class:`~repro.obs.hooks.ObsHub` instances (built by :meth:`hub`), so
``/metrics`` exposes the service picture (requests, rejections, queue
depth, batch sizes, wait/latency histograms) *and* the engine-level
events of the runs it served (phases, kernel batches, comm bytes) in
one Prometheus scrape.

Latency percentiles are computed two ways on purpose:

* the ``repro_serve_latency_seconds`` histogram uses fixed buckets —
  the right shape for a Prometheus scrape pipeline;
* :meth:`snapshot` keeps a bounded window of exact samples and reports
  true p50/p99 — the numbers ``bench_serve.py`` and the ``/stats``
  endpoint print, where bucket-edge quantization would drown the
  batched-vs-unbatched comparison.

All mutators take the internal lock: the HTTP side (asyncio event
loop) and the per-graph worker threads report concurrently.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.obs.hooks import INTERP_PATHS, ObsHub, interp_counter
from repro.obs.metrics import MetricsRegistry

__all__ = ["ServeMetrics", "percentile"]

#: request latency / queue-wait buckets, in seconds
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)

#: batch-size buckets (requests merged into one engine run)
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: terminal request statuses the requests_total counter partitions by
STATUSES = ("ok", "error", "rejected", "draining", "timeout")


def percentile(samples: List[float], q: float) -> float:
    """Exact q-quantile (0..1) by linear interpolation, 0.0 if empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class ServeMetrics:
    """Thread-safe service metrics over one shared registry."""

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 window: int = 4096) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._latencies: Deque[float] = deque(maxlen=window)
        self._batch_sizes: Deque[int] = deque(maxlen=window)
        self._started = time.perf_counter()
        reg = self.registry
        self._requests = reg.counter(
            "repro_serve_requests_total",
            "terminal request outcomes by status", labels=("status",),
        )
        self._coalesced = reg.counter(
            "repro_serve_coalesced_requests_total",
            "requests answered by a run they shared with other requests",
        )
        self._runs = reg.counter(
            "repro_serve_runs_total", "engine runs executed by workers"
        )
        self._depth = reg.gauge(
            "repro_serve_queue_depth", "admitted requests awaiting a worker"
        )
        self._inflight = reg.gauge(
            "repro_serve_inflight_batches", "batches currently executing",
        )
        self._batch_hist = reg.histogram(
            "repro_serve_batch_size",
            "requests merged into one engine run",
            buckets=BATCH_BUCKETS,
        )
        self._latency_hist = reg.histogram(
            "repro_serve_latency_seconds",
            "admission-to-response latency of ok requests",
            buckets=LATENCY_BUCKETS,
        )
        self._wait_hist = reg.histogram(
            "repro_serve_queue_wait_seconds",
            "time between admission and batch formation",
            buckets=LATENCY_BUCKETS,
        )
        self._run_hist = reg.histogram(
            "repro_serve_run_seconds",
            "wall-clock of one batched engine run",
            buckets=LATENCY_BUCKETS,
        )
        # zero-fill the status partitions so /metrics always exposes
        # the full taxonomy, scrapes before the first rejection included
        for status in STATUSES:
            self._requests.inc(0.0, status=status)
        # likewise every interpreter-fallback path: a missed kernel
        # lowering shows as a nonzero sample, never as a missing one
        for path in INTERP_PATHS:
            interp_counter(reg).inc(0.0, path=path)

    def hub(self) -> ObsHub:
        """A fresh ObsHub feeding this registry.

        One per worker thread: the hub carries per-run phase context and
        is not thread-safe, but all hubs share the one registry that
        ``/metrics`` exports.
        """
        return ObsHub(metrics=self.registry)

    # -- admission-side reporting -----------------------------------------

    def queue_depth(self, depth: int) -> None:
        with self._lock:
            self._depth.set(float(depth))

    def rejected(self, status: str = "rejected") -> None:
        with self._lock:
            self._requests.inc(status=status)

    # -- worker-side reporting --------------------------------------------

    def batch_begin(self, size: int, queue_waits: List[float]) -> None:
        with self._lock:
            self._inflight.inc(1.0)
            self._batch_hist.observe(float(size))
            self._batch_sizes.append(int(size))
            for wait in queue_waits:
                self._wait_hist.observe(wait)

    def batch_end(self, run_seconds: float) -> None:
        with self._lock:
            self._inflight.inc(-1.0)
            self._runs.inc()
            self._run_hist.observe(run_seconds)

    def request_done(self, status: str, latency: float,
                     coalesced: bool = False) -> None:
        with self._lock:
            self._requests.inc(status=status)
            if status == "ok":
                self._latency_hist.observe(latency)
                self._latencies.append(latency)
                if coalesced:
                    self._coalesced.inc()

    # -- export ------------------------------------------------------------

    def export_prometheus(self) -> str:
        with self._lock:
            return self.registry.export_prometheus()

    def snapshot(self) -> Dict[str, float]:
        """Exact service-level numbers for ``/stats`` and the bench."""
        with self._lock:
            latencies = list(self._latencies)
            batches = list(self._batch_sizes)
            served = self._requests.value(status="ok")
            uptime = time.perf_counter() - self._started
            return {
                "uptime_seconds": uptime,
                "requests_ok": served,
                "requests_error": self._requests.value(status="error"),
                "requests_rejected": self._requests.value(status="rejected"),
                "requests_draining": self._requests.value(status="draining"),
                "requests_timeout": self._requests.value(status="timeout"),
                "coalesced_requests": self._coalesced.value(),
                "runs": self._runs.value(),
                "queue_depth": self._depth.value(),
                "qps": served / uptime if uptime > 0 else 0.0,
                "latency_p50": percentile(latencies, 0.50),
                "latency_p99": percentile(latencies, 0.99),
                "mean_batch_size": (
                    sum(batches) / len(batches) if batches else 0.0
                ),
            }
