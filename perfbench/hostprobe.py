"""Host-speed probe and the idle guard around it.

This host switches between speed regimes that last seconds; a fixed
Python workload runs at one of a few speeds depending on the regime.
Timings are therefore reported host-normalized:

    t_norm = t_wall * nominal / probe_adjacent

where ``probe_adjacent`` is this probe measured right next to the op
and ``nominal`` is a constant recorded in ``perfbench/RECORD.json``.

The probe imports nothing from the program under test, and it runs
only while the program is idle.  :class:`IdleGuard` confirms that by
reading the program processes' CPU time from ``/proc/<pid>/stat``
across each probe; a probe across which a program process used CPU is
retried and counted as busy.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["HostProbe", "IdleGuard", "cpu_ticks", "normalize"]

_DICT_KEYS = 511
_GATHER_SIZE = 1 << 14
#: loops per probe value (their median is the value); ``nominal_s`` in
#: RECORD.json was measured with exactly this probe
_REPS = 7
#: dict updates per loop
_LOOP = 4000
#: re-measures of a probe across which the program used CPU
_RETRIES = 2


def cpu_ticks(pid: int) -> Optional[int]:
    """utime + stime of ``pid`` in clock ticks; None if it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    # the command name may hold spaces; fields resume after its ")"
    fields = raw[raw.rindex(b")") + 2:].split()
    return int(fields[11]) + int(fields[12])


class IdleGuard:
    """Reads the CPU time of the program's processes around a probe.

    ``pids`` is a callable so the set can grow (a pool spawned late).
    """

    def __init__(self, pids: Callable[[], Iterable[int]]) -> None:
        self._pids = pids

    def snapshot(self) -> Tuple[Tuple[int, Optional[int]], ...]:
        return tuple((pid, cpu_ticks(pid)) for pid in self._pids())

    @staticmethod
    def moved(before, after) -> bool:
        """Did any process present in both snapshots use CPU?"""
        start = dict(before)
        for pid, ticks in after:
            if ticks is not None and start.get(pid) is not None \
                    and ticks > start[pid]:
                return True
        return False


class HostProbe:
    """A short fixed loop of dict updates plus a small NumPy gather.

    :meth:`measure` takes the median of a few loops (each well under
    a millisecond on a 2-vCPU cloud VM), averaged with the same loop run
    at the same moment by any ``helpers``, and keeps every value in
    :attr:`values` with its timestamp, so a run can report the host
    factor and the probe's own spread.
    """

    def __init__(self, nominal: float, guard: Optional[IdleGuard] = None,
                 helpers: Sequence["ProbeHelper"] = ()) -> None:
        self.nominal = float(nominal)
        self.guard = guard
        self.helpers = list(helpers)
        rng = np.random.default_rng(0)
        self._index = rng.permutation(_GATHER_SIZE)
        self._data = np.arange(_GATHER_SIZE, dtype=np.float64)
        #: (timestamp, seconds) of every measurement
        self.values: List[Tuple[float, float]] = []
        self.measurements = 0
        self.busy = 0

    def _loop_once(self) -> float:
        table = {}
        t0 = perf_counter()
        for i in range(_LOOP):
            key = i & _DICT_KEYS
            table[key] = table.get(key, 0) + i
        self._data[self._index].sum()
        return perf_counter() - t0

    def _sample(self) -> float:
        for helper in self.helpers:
            helper.start()
        values = [self.local_sample()]
        values += [helper.result() for helper in self.helpers]
        return statistics.fmean(values)

    def local_sample(self) -> float:
        return statistics.median(self._loop_once() for _ in range(_REPS))

    def measure(self) -> float:
        """One probe value in seconds, taken while the program is idle."""
        self.measurements += 1
        value = None
        for _ in range(_RETRIES + 1):
            before = self.guard.snapshot() if self.guard else ()
            t0 = perf_counter()
            value = self._sample()
            stamp = 0.5 * (t0 + perf_counter())
            if self.guard is None or not IdleGuard.moved(
                    before, self.guard.snapshot()):
                break
            self.busy += 1
        self.values.append((stamp, value))
        return value

    # -- diagnostics ------------------------------------------------------

    def factor(self) -> float:
        """Median probe over nominal (>1: slower than nominal)."""
        if not self.values:
            return 1.0
        return statistics.median(v for _, v in self.values) / self.nominal

    def cv(self) -> float:
        vals = [v for _, v in self.values]
        if len(vals) < 2:
            return 0.0
        return statistics.pstdev(vals) / statistics.fmean(vals)

    def busy_share(self) -> float:
        attempts = self.measurements + self.busy
        return self.busy / attempts if attempts else 0.0

    def adjacent(self, start: float, end: float) -> float:
        """The probe next to an op that ran from ``start`` to ``end``:
        the mean of the last probe before it and the first after it."""
        before = [v for t, v in self.values if t <= start][-1:]
        after = [v for t, v in self.values if t >= end][:1]
        near = before + after
        if not near:
            raise ValueError("no probe was taken next to the op")
        return statistics.fmean(near)


def normalize(wall: float, probe: float, nominal: float) -> float:
    """``wall * nominal / probe``: wall time at the nominal host speed."""
    if probe <= 0:
        raise ValueError(f"probe time must be positive, got {probe}")
    return wall * nominal / probe



class ProbeHelper:
    """Another process running the same probe at the same moment.

    The host's vCPUs change speed partly independently, and a program
    that computes on all of them (a process pool) slows with all of
    them.  Its probe value is the mean of this process's loop and the
    helpers', run concurrently so each lands on its own vCPU.  A helper
    blocks on its pipe between probes.
    """

    def __init__(self) -> None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _HELPER_MAIN, root],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def start(self) -> None:
        self.proc.stdin.write(b"probe\n")
        self.proc.stdin.flush()

    def result(self) -> float:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("probe helper exited")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


_HELPER_MAIN = """
import sys
sys.path.insert(0, sys.argv[1])
from perfbench.hostprobe import HostProbe
probe = HostProbe(1.0)
for _ in sys.stdin:
    sys.stdout.write(repr(probe.local_sample()) + "\\n")
    sys.stdout.flush()
"""
