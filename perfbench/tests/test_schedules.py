"""Fixed-count op schedules are pure functions of their seed."""

import numpy as np
import pytest

from perfbench.schedules import (
    arrivals,
    mutation_batches,
    op_count,
    op_seeds,
    root_sets,
    shuffled,
)


def _ring(n):
    src = np.arange(n)
    dst = (src + 1) % n
    return np.concatenate([src, dst]), np.concatenate([dst, src])


def test_op_count_is_fixed_by_seconds_not_by_speed():
    assert op_count(12, 8.0, 60) == 96
    assert op_count(1, 8.0, 60) == 60
    assert op_count(12, 0.6, 5) == 7


def test_same_seed_same_ops():
    assert op_seeds(5, 10) == op_seeds(5, 10)
    assert op_seeds(5, 10) != op_seeds(6, 10)
    cands = np.arange(3, 200)
    a, b = arrivals(5, cands, 50, 8.0), arrivals(5, cands, 50, 8.0)
    assert a == b
    assert a != arrivals(6, cands, 50, 8.0)
    src, dst = _ring(64)
    one = mutation_batches(5, 64, src, dst, 12, 9, 4)
    two = mutation_batches(5, 64, src, dst, 12, 9, 4)
    assert one == two
    assert one != mutation_batches(6, 64, src, dst, 12, 9, 4)


def test_arrivals_shape():
    cands = np.arange(10, 500)
    sched = arrivals(1, cands, 400, 10.0)
    assert len(sched) == 400
    dues = [a.due for a in sched]
    assert dues == sorted(dues)
    # 40 s of arrivals at 10/s
    assert 0 < dues[0] and dues[-1] == pytest.approx(40.0)
    assert all(a.source in set(cands.tolist()) for a in sched)
    hot = [a.source for a in sched if a.hot]
    assert len(set(hot)) == 8
    assert len(hot) == 80
    cold = [a.source for a in sched if not a.hot]
    assert len(set(cold)) == len(cold)
    assert not set(cold) & set(hot)


def test_every_seed_asks_for_the_same_work():
    cands = np.arange(10, 500)
    one, two = arrivals(1, cands, 96, 8.0), arrivals(2, cands, 96, 8.0)
    assert sorted(a.source for a in one) == sorted(a.source for a in two)
    assert [a.source for a in one] != [a.source for a in two]
    assert [a.due for a in one] != [a.due for a in two]

    def gaps(sched):
        dues = [0.0] + [a.due for a in sched]
        return sorted(round(b - a, 9) for a, b in zip(dues, dues[1:]))

    assert gaps(one) == gaps(two)
    catalogue = root_sets(cands, 14, 2)
    assert catalogue == root_sets(cands, 14, 2)
    assert all(len(set(s)) == 2 for s in catalogue)
    sets_one, sets_two = shuffled(1, catalogue), shuffled(2, catalogue)
    assert sorted(sets_one) == sorted(sets_two) == sorted(catalogue)
    assert sets_one != sets_two
    assert shuffled(1, catalogue) == sets_one


def test_mutation_batches_are_symmetric_and_valid():
    src, dst = _ring(64)
    live = {(int(u), int(v)) for u, v in zip(src, dst)}
    n = 64
    batches = mutation_batches(3, n, src, dst, 16, 9, 4)
    for b, batch in enumerate(batches):
        ins = list(zip(batch["insert_src"], batch["insert_dst"]))
        dels = list(zip(batch["delete_src"], batch["delete_dst"]))
        assert set(ins) == {(v, u) for u, v in ins}
        assert set(dels) == {(v, u) for u, v in dels}
        assert not set(ins) & set(dels)
        assert all(e in live for e in dels)
        n += batch["add_vertices"]
        assert all(max(e) < n for e in ins)
        live -= set(dels)
        live |= set(ins)
        assert batch["add_vertices"] == (1 if (b + 1) % 4 == 0 else 0)
        # 2:1 inserts to deletes (plus the growth edge)
        assert len(ins) // 2 - batch["add_vertices"] == 6
        assert len(dels) // 2 == 3
