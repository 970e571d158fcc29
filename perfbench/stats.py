"""Summary arithmetic: medians, the tail rule, spreads, failure ratios."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Ledger",
    "OUTCOMES",
    "TAIL_LADDER",
    "median",
    "nearest_rank",
    "spread",
    "tail",
]

#: percentiles the tail rule may report, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
#: samples that must lie beyond a reported tail percentile
MIN_BEYOND = 10
#: terminal states of one op
OUTCOMES = ("ok", "failed", "refused", "late", "wrong")


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def nearest_rank(values: Sequence[float], pct: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the count of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """The highest ladder percentile with :data:`MIN_BEYOND` samples beyond.

    Returns ``(percentile, value, samples)``, or None when the run is
    too short to support any percentile above the median -- the tail
    is then omitted rather than copied from the median.
    """
    if not values:
        return None
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(values, pct)
        if beyond >= MIN_BEYOND:
            return pct, value, len(values)
    return None


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


@dataclass
class Ledger:
    """Op outcomes of one run, keyed by op index.

    Every attempted op ends in exactly one of :data:`OUTCOMES`:
    ``refused`` is admission pushback (HTTP 429/503), ``late`` a reply
    past the request deadline (HTTP 504 or beyond the latency limit),
    ``failed`` any other error, and ``wrong`` an op that completed but
    whose output failed a check made after the timed phase.
    """

    outcomes: Dict[int, str] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def record(self, op: int, outcome: str, note: str = "") -> None:
        if outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}")
        if op in self.outcomes:
            raise ValueError(f"op {op} already recorded")
        self.outcomes[op] = outcome
        self._note(op, note)

    def mark_wrong(self, op: int, note: str) -> None:
        """Op ``op`` completed, but its output failed a check."""
        if self.outcomes.get(op) == "ok":
            self.outcomes[op] = "wrong"
        self._note(op, note)

    def _note(self, op: int, note: str) -> None:
        if note and len(self.notes) < 20:
            self.notes.append(f"op {op}: {note}")

    def count(self, outcome: str) -> int:
        return sum(1 for o in self.outcomes.values() if o == outcome)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def bad(self) -> int:
        return self.attempted - self.count("ok")

    @property
    def fail_ratio(self) -> float:
        """(failed + wrong + refused + late) / attempted."""
        return self.bad / self.attempted if self.attempted else 1.0

    def to_dict(self) -> Dict[str, int]:
        out = {"attempted": self.attempted}
        out.update({o: self.count(o) for o in OUTCOMES})
        return out
