"""Failure counting: errors, wrong outputs, refused and late requests."""

import pytest

from perfbench.stats import Ledger
from perfbench.workloads.serve_query import LATE_LIMIT, classify


def test_fail_ratio_counts_every_bad_outcome():
    ledger = Ledger()
    for i, outcome in enumerate(
            ["ok", "ok", "failed", "refused", "late", "ok", "ok", "ok"]):
        ledger.record(i, outcome)
    ledger.mark_wrong(0, "digest differs")
    assert ledger.attempted == 8
    assert ledger.bad == 4
    assert ledger.fail_ratio == pytest.approx(4 / 8)
    assert ledger.to_dict() == {
        "attempted": 8, "ok": 4, "failed": 1, "refused": 1, "late": 1,
        "wrong": 1,
    }


def test_wrong_marks_an_op_once_and_never_a_failed_one():
    ledger = Ledger()
    ledger.record(0, "ok")
    ledger.record(1, "failed")
    ledger.mark_wrong(0, "a")
    ledger.mark_wrong(0, "b")
    ledger.mark_wrong(1, "c")
    assert ledger.to_dict()["wrong"] == 1
    assert ledger.to_dict()["failed"] == 1
    assert ledger.bad == 2


def test_ledger_rejects_double_records_and_unknown_outcomes():
    ledger = Ledger()
    ledger.record(0, "ok")
    with pytest.raises(ValueError):
        ledger.record(0, "ok")
    with pytest.raises(ValueError):
        ledger.record(1, "slow")


def test_an_empty_run_is_all_failure():
    assert Ledger().fail_ratio == 1.0


@pytest.mark.parametrize("status,latency,outcome", [
    (200, 0.05, "ok"),
    (200, LATE_LIMIT + 0.01, "late"),
    (504, 1.0, "late"),
    (429, 0.01, "refused"),
    (503, 0.01, "refused"),
    (400, 0.01, "failed"),
    (500, 0.01, "failed"),
    (None, 0.01, "failed"),
])
def test_open_loop_request_outcomes(status, latency, outcome):
    assert classify(status, latency) == outcome
