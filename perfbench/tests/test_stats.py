"""Normalization arithmetic, the tail rule and spreads."""

import math

import pytest

from perfbench.common import OpSample, Phase
from perfbench.hostprobe import HostProbe, IdleGuard, normalize
from perfbench.stats import nearest_rank, spread, tail


def test_normalize_scales_by_nominal_over_probe():
    # a host running at half speed doubles both the op and the probe
    assert normalize(2.0, 0.010, 0.005) == pytest.approx(1.0)
    assert normalize(1.0, 0.005, 0.005) == pytest.approx(1.0)
    assert normalize(0.3, 0.004, 0.002) == pytest.approx(0.15)


def test_normalize_rejects_nonpositive_probe():
    with pytest.raises(ValueError):
        normalize(1.0, 0.0, 1.0)


def test_op_sample_and_phase_duration_use_adjacent_probe():
    phase = Phase()
    for i, (wall, probe) in enumerate([(0.2, 0.002), (0.1, 0.001)]):
        phase.ledger.record(i, "ok")
        phase.samples[i] = OpSample(wall, probe, nominal=0.001)
    assert phase.norm_ms() == pytest.approx([100.0, 100.0])
    assert phase.raw_ms() == pytest.approx([200.0, 100.0])


def test_failed_ops_have_no_latency_but_wrong_ones_do():
    phase = Phase()
    for i, outcome in enumerate(["ok", "failed", "ok"]):
        phase.ledger.record(i, outcome)
        phase.samples[i] = OpSample(0.01 * (i + 1), 1.0, 1.0)
    phase.ledger.mark_wrong(2, "bad output")
    assert phase.raw_ms() == pytest.approx([10.0, 30.0])


def test_nearest_rank():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == (50, 50)
    assert nearest_rank(values, 90) == (90, 10)
    assert nearest_rank(values, 99) == (99, 1)


def test_tail_picks_highest_percentile_with_ten_beyond():
    assert tail(list(range(1, 101))) == (90.0, 90, 100)
    assert tail(list(range(1, 1001))) == (99.0, 990, 1000)
    assert tail(list(range(1, 41))) == (75.0, 30, 40)


def test_tail_is_omitted_on_short_runs():
    # 39 samples: p75 has only 9 beyond it, and nothing above the
    # median is reported in its place (never the median itself)
    assert tail(list(range(1, 40))) is None
    assert tail([5.0] * 7) is None
    assert tail([]) is None


def test_spread_is_iqr_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    q1, med, q3 = 9.5, 10.0, 10.5
    assert spread(values) == pytest.approx((q3 - q1) / med)
    assert spread([3.0, 3.0, 3.0, 3.0]) == 0.0
    assert math.isinf(spread([-1.0, 0.0, 0.0, 1.0]))


def test_probe_factor_and_busy_share():
    probe = HostProbe(nominal=1.0)
    probe.values = [(0.0, 2.0), (1.0, 3.0), (2.0, 4.0)]
    assert probe.factor() == pytest.approx(3.0)


def test_adjacent_probe_brackets_the_op():
    probe = HostProbe(nominal=1.0)
    probe.values = [(0.0, 2.0), (1.0, 3.0), (2.0, 5.0), (5.0, 8.0)]
    assert probe.adjacent(1.1, 1.5) == pytest.approx(4.0)
    assert probe.adjacent(2.0, 4.0) == pytest.approx(6.5)
    assert probe.adjacent(6.0, 7.0) == 8.0
    with pytest.raises(ValueError):
        HostProbe(nominal=1.0).adjacent(0.0, 1.0)


def test_idle_guard_flags_cpu_use_during_probe():
    before = ((10, 100), (11, 5))
    assert not IdleGuard.moved(before, ((10, 100), (11, 5)))
    assert IdleGuard.moved(before, ((10, 101), (11, 5)))
    # a process that appeared or vanished mid-probe is not evidence
    assert not IdleGuard.moved(before, ((10, 100), (12, 50)))
    assert not IdleGuard.moved(before, ((10, None), (11, 5)))


def test_busy_probe_is_retried_and_counted():
    ticks = iter([0, 1, 1, 1])

    probe = HostProbe(nominal=1.0, guard=IdleGuard(lambda: [1]))
    probe.guard.snapshot = lambda: ((1, next(ticks)),)
    probe.measure()
    assert probe.busy == 1
    assert probe.measurements == 1
    assert probe.busy_share() == pytest.approx(0.5)
