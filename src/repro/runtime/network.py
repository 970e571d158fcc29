"""Simulated interconnect with per-pair byte accounting.

Stands in for the paper's MPI/RDMA fabric.  Engines call
:meth:`SimulatedNetwork.send` for every remote transfer; the network
records bytes and message counts per (source, destination, tag) so the
communication tables can be regenerated and the cost model can price
transfers.  Local (same-machine) transfers are free and not recorded,
matching how the paper counts communication volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import EngineError
from repro.runtime.counters import COMM_TAGS, Counters

__all__ = ["SimulatedNetwork", "DeliveryOutcome"]


@dataclass
class DeliveryOutcome:
    """What happened to one transfer on a faulty fabric.

    Returned by a delivery hook (see
    :class:`~repro.fault.injector.FaultController`): ``attempts`` counts
    transmissions until the message got through (retransmissions after
    drops), ``extra_copies`` counts spurious duplicate deliveries, and
    ``delay`` is simulated time lost to in-flight delay plus
    retransmission backoff.  The default outcome is a clean delivery.
    """

    attempts: int = 1
    extra_copies: int = 0
    delay: float = 0.0

    @property
    def transmissions(self) -> int:
        return self.attempts + self.extra_copies


class SimulatedNetwork:
    """Byte/message accounting fabric between simulated machines.

    With ``trace=True`` every remote transfer is additionally appended
    to :attr:`log` as a ``(src, dst, tag, bytes)`` tuple (bounded by
    ``trace_limit``) — a debugging aid for protocol work, off by
    default to keep long runs cheap.

    A :attr:`delivery_hook` — ``(src, dst, tag, nbytes) ->
    DeliveryOutcome | None`` — lets a fault injector intercept every
    transfer: retransmissions and duplicate copies are charged as extra
    bytes/messages, delays as penalty time on the counters.  The hook
    may raise to model an unrecoverable delivery failure.
    """

    def __init__(
        self,
        num_machines: int,
        counters: Counters | None = None,
        trace: bool = False,
        trace_limit: int = 100_000,
    ) -> None:
        if num_machines <= 0:
            raise EngineError("a network needs at least one machine")
        self.num_machines = num_machines
        self.counters = counters if counters is not None else Counters(num_machines)
        # traffic[tag][src, dst] = bytes
        self.traffic: Dict[str, np.ndarray] = {
            tag: np.zeros((num_machines, num_machines), dtype=np.int64)
            for tag in COMM_TAGS
        }
        self.message_counts: Dict[str, np.ndarray] = {
            tag: np.zeros((num_machines, num_machines), dtype=np.int64)
            for tag in COMM_TAGS
        }
        self.trace = trace
        self.trace_limit = trace_limit
        self.log: list[Tuple[int, int, str, int]] = []
        self.dropped_log_entries = 0
        self.delivery_hook: Optional[
            Callable[[int, int, str, int], Optional[DeliveryOutcome]]
        ] = None

    def send(
        self, src: int, dst: int, tag: str, nbytes: int, messages: int = 1
    ) -> None:
        """Record a transfer.  Same-machine transfers are free."""
        if tag not in self.traffic:
            raise EngineError(f"unknown communication tag {tag!r}")
        if not (0 <= src < self.num_machines and 0 <= dst < self.num_machines):
            raise EngineError(f"machine out of range: {src} -> {dst}")
        if nbytes < 0:
            raise EngineError("cannot send a negative number of bytes")
        if src == dst:
            return
        if self.delivery_hook is not None:
            outcome = self.delivery_hook(src, dst, tag, nbytes)
            if outcome is not None and outcome.transmissions > 1:
                # retransmissions and duplicates repeat the payload
                extra = outcome.transmissions - 1
                nbytes = int(nbytes) * outcome.transmissions
                messages = int(messages) + extra
            if outcome is not None and outcome.delay > 0.0:
                self.counters.add_penalty(outcome.delay)
        self.traffic[tag][src, dst] += int(nbytes)
        self.message_counts[tag][src, dst] += int(messages)
        self.counters.add_bytes(tag, nbytes, messages)
        if self.trace:
            if len(self.log) < self.trace_limit:
                self.log.append((src, dst, tag, int(nbytes)))
            else:
                self.dropped_log_entries += 1

    def send_matrix(
        self, tag: str, nbytes: np.ndarray, messages: np.ndarray
    ) -> None:
        """Record many transfers at once: ``nbytes[src, dst]`` bytes in
        ``messages[src, dst]`` messages per machine pair.

        Equivalent, for the traffic/message matrices and the counters,
        to one :meth:`send` per nonzero pair — but never consults the
        delivery hook or the trace log, so callers must only use it
        when neither is active.  The diagonal must be zero.
        """
        if tag not in self.traffic:
            raise EngineError(f"unknown communication tag {tag!r}")
        if self.delivery_hook is not None or self.trace:
            raise EngineError(
                "send_matrix bypasses the delivery hook and trace log"
            )
        if np.diagonal(nbytes).any() or (nbytes < 0).any():
            raise EngineError("send_matrix needs non-negative remote bytes")
        self.traffic[tag] += nbytes
        self.message_counts[tag] += messages
        self.counters.add_bytes(tag, int(nbytes.sum()), int(messages.sum()))

    # -- queries -----------------------------------------------------------

    def bytes_sent(self, tag: str | None = None) -> int:
        if tag is not None:
            return int(self.traffic[tag].sum())
        return int(sum(matrix.sum() for matrix in self.traffic.values()))

    def bytes_between(self, src: int, dst: int) -> int:
        return int(sum(matrix[src, dst] for matrix in self.traffic.values()))

    def per_machine_sent(self, tag: str | None = None) -> np.ndarray:
        """Bytes sent by each machine (row sums)."""
        if tag is not None:
            return self.traffic[tag].sum(axis=1)
        return sum(matrix.sum(axis=1) for matrix in self.traffic.values())

    def per_machine_received(self, tag: str | None = None) -> np.ndarray:
        if tag is not None:
            return self.traffic[tag].sum(axis=0)
        return sum(matrix.sum(axis=0) for matrix in self.traffic.values())

    def busiest_pair(self) -> Tuple[int, int, int]:
        """(src, dst, bytes) of the most loaded link."""
        total = sum(self.traffic.values())
        idx = int(np.argmax(total))
        src, dst = divmod(idx, self.num_machines)
        return src, dst, int(total[src, dst])
