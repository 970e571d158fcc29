"""Pieces every workload shares: set-up clock, closed loop, tallies."""

from __future__ import annotations

import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence

from perfbench.hostprobe import HostProbe, normalize
from perfbench.stats import Ledger
from perfbench.tracing import Recorder

__all__ = ["Counts", "OpSample", "Phase", "SetupClock", "closed_loop"]

#: outcomes of ops whose latency counts in the timing metrics
COMPLETED = ("ok", "wrong", "late")


@dataclass
class Counts:
    """Exact cost-model tallies, summed over a run's ops.

    ``sim_time`` is the paper's simulated execution time, ``edges``
    the edges traversed (Table 5) and ``total_bytes`` the simulated
    network bytes (Table 6); the per-tag bytes feed the ``runtime``
    layer metrics.
    """

    sim_time: float = 0.0
    edges: int = 0
    total_bytes: int = 0
    update_bytes: int = 0
    dep_bytes: int = 0
    sync_bytes: int = 0
    push_bytes: int = 0

    _TAGS = ("update_bytes", "dep_bytes", "sync_bytes", "push_bytes")

    def add_result(self, result: Any) -> None:
        """Add a :class:`repro.bench.harness.RunResult`."""
        self.sim_time += float(result.simulated_time)
        self.edges += int(result.edges_traversed)
        self.total_bytes += int(result.total_bytes)
        for tag in self._TAGS:
            setattr(self, tag, getattr(self, tag) + int(getattr(result, tag)))

    def add_engine(self, engine: Any) -> None:
        """Add what one hand-driven engine accumulated."""
        c = engine.counters
        self.sim_time += float(engine.execution_time())
        self.edges += int(c.edges_traversed)
        self.total_bytes += int(c.total_bytes)
        for tag in self._TAGS:
            setattr(self, tag, getattr(self, tag) + int(getattr(c, tag)))


@dataclass
class OpSample:
    """One op's wall time and the probe measured next to it."""

    wall: float
    probe: float
    nominal: float

    @property
    def norm(self) -> float:
        return normalize(self.wall, self.probe, self.nominal)


@dataclass
class Phase:
    """Everything a timed phase produced, before any summarizing."""

    samples: Dict[int, OpSample] = field(default_factory=dict)
    outputs: Dict[int, Any] = field(default_factory=dict)
    ledger: Ledger = field(default_factory=Ledger)
    counts: Counts = field(default_factory=Counts)
    #: normalized seconds of op time in the timed phase (the ``ops_per_s``
    #: base; for an open loop, the requests' summed time in the system)
    duration: float = 0.0
    raw_duration: float = 0.0
    info: Dict[str, Any] = field(default_factory=dict)

    def _completed(self) -> List[OpSample]:
        """Samples of ops that returned an output (right, wrong or late)."""
        return [s for i, s in sorted(self.samples.items())
                if self.ledger.outcomes.get(i) in COMPLETED]

    def norm_ms(self) -> List[float]:
        return [s.norm * 1e3 for s in self._completed()]

    def raw_ms(self) -> List[float]:
        return [s.wall * 1e3 for s in self._completed()]

    @property
    def ops(self) -> int:
        return max(1, self.ledger.attempted)


class SetupClock:
    """Times set-up phases, each bracketed by host probes.

    The probe after one phase is the probe before the next, so a
    set-up of ``k`` phases takes ``k + 1`` probes.
    """

    def __init__(self, probe: HostProbe) -> None:
        self.probe = probe
        self.raw: Dict[str, float] = {}
        self.norm: Dict[str, float] = {}

    @contextmanager
    def phase(self, name: str):
        if not self.probe.values:
            self.probe.measure()
        t0 = perf_counter()
        yield
        t1 = perf_counter()
        self.probe.measure()
        wall = t1 - t0
        self.raw[name] = self.raw.get(name, 0.0) + wall
        self.norm[name] = self.norm.get(name, 0.0) + normalize(
            wall, self.probe.adjacent(t0, t1), self.probe.nominal
        )

    def total(self) -> float:
        return sum(self.norm.values())

    def raw_total(self) -> float:
        return sum(self.raw.values())


def closed_loop(probe: HostProbe, ops: Sequence[Any],
                fn: Callable[[int, Any], Any],
                recorder: Optional[Recorder] = None,
                after_op: Optional[Callable[[int, Any, Any], None]] = None,
                phase: Optional[Phase] = None) -> Phase:
    """Run ``fn(i, op)`` for each op, one at a time, probing between.

    Each op is timed alone; the probe runs while the program is idle,
    before the first op and after every op, and each op is normalized
    by the probes on either side of it.  ``after_op``
    (output checks) runs outside the timed window.
    """
    phase = phase if phase is not None else Phase()
    spans = {}
    probe.measure()
    for i, op in enumerate(ops):
        out = None
        t0 = perf_counter()
        try:
            if recorder is None:
                out = fn(i, op)
            else:
                with recorder.span("op", op=i):
                    out = fn(i, op)
            outcome, note = "ok", ""
        except Exception as exc:  # noqa: BLE001 - an op failure is data
            outcome = "failed"
            note = "".join(traceback.format_exception_only(exc)).strip()
        spans[i] = (t0, perf_counter())
        phase.ledger.record(i, outcome, note)
        if outcome == "ok":
            phase.outputs[i] = out
            if after_op is not None:
                after_op(i, op, out)
        probe.measure()
    for i, (t0, t1) in spans.items():
        phase.samples[i] = OpSample(t1 - t0, probe.adjacent(t0, t1),
                                    probe.nominal)
    phase.raw_duration = sum(s.wall for s in phase.samples.values())
    phase.duration = sum(s.norm for s in phase.samples.values())
    return phase


def make_hub(tally):
    """An ObsHub feeding ``tally`` (a kernel-batch hook), or None."""
    if tally is None:
        return None
    from repro.obs.hooks import ObsHub

    hub = ObsHub()
    hub.register(tally)
    return hub
