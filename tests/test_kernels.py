"""Kernel layer: classification, registry, and batched CSR kernels.

Covers the three pieces introduced by the vectorized fast path:

* ``repro.analysis.kernelspec`` — which UDF shapes classify to which
  kernel kinds, and that anything outside the grammar (impure UDFs,
  unknown shapes, ``fold_while`` closures) conservatively yields no
  spec;
* ``repro.kernels.registry`` — lookup, extension, and override;
* ``repro.kernels.csr`` — batch results match a straight-line Python
  interpretation of the same UDF, including restored loop-carried
  state.

End-to-end engine equivalence (kernels on vs off, with faults) lives
in ``test_engine_equivalence.py``.
"""

import importlib

import numpy as np
import pytest

from repro.analysis import fold_while
from repro.analysis.instrument import instrument_signal
from repro.analysis.kernelspec import (
    COUNT_TO_K_BREAK,
    FIRST_MATCH_BREAK,
    FULL_SCAN_MIN,
    FULL_SCAN_SUM,
    PUSH_GATHER,
    SLOT_KINDS,
)
from repro.engine import SympleGraphEngine, SympleOptions
from repro.engine.state import StateStore
from repro.graph import erdos_renyi, to_undirected
from repro.kernels import available_kernels, get_kernel, register_kernel
from repro.kernels import registry as kernel_registry
from repro.partition import OutgoingEdgeCut
from repro.partition.base import LocalAdjacency

bfs_mod = importlib.import_module("repro.algorithms.bfs")
cc_mod = importlib.import_module("repro.algorithms.cc")
kcore_mod = importlib.import_module("repro.algorithms.kcore")
mis_mod = importlib.import_module("repro.algorithms.mis")
pr_mod = importlib.import_module("repro.algorithms.pagerank")


# -- classification --------------------------------------------------------


class TestClassification:
    @pytest.mark.parametrize(
        "signal,kind",
        [
            (bfs_mod.bottom_up_signal, FIRST_MATCH_BREAK),
            (mis_mod.mis_signal, FIRST_MATCH_BREAK),
            (kcore_mod.kcore_signal, COUNT_TO_K_BREAK),
            (pr_mod.pagerank_signal, FULL_SCAN_SUM),
            (cc_mod.cc_signal, FULL_SCAN_MIN),
        ],
    )
    def test_builtin_signals_classify(self, signal, kind):
        spec = instrument_signal(signal).kernel
        assert spec is not None
        assert spec.kind == kind
        # every role was compiled and its source kept for inspection
        assert spec.sources and all(spec.sources.values())
        assert set(spec.exprs) == set(spec.sources)

    def test_classification_reads_expected_state(self):
        spec = instrument_signal(bfs_mod.bottom_up_signal).kernel
        assert spec.arrays == ("frontier",)
        assert spec.carried_vars == ()
        spec = instrument_signal(kcore_mod.kcore_signal).kernel
        assert spec.carried_vars == ("cnt",)

    def test_impure_udf_not_classified(self):
        def writes_state(v, nbrs, s, emit):
            for u in nbrs:
                s.mark[u] = 1
                if s.flag[u]:
                    emit(u)
                    break

        assert instrument_signal(writes_state).kernel is None

    def test_unknown_shape_not_classified(self):
        def two_emits(v, nbrs, s, emit):
            for u in nbrs:
                if s.flag[u]:
                    emit(u)
                    emit(v)
                    break

        assert instrument_signal(two_emits).kernel is None

    def test_free_variable_not_classified(self):
        helper = {"threshold": 3}

        def closes_over(v, nbrs, s, emit):
            for u in nbrs:
                if s.val[u] > helper["threshold"]:
                    emit(u)
                    break

        assert instrument_signal(closes_over).kernel is None

    def test_fold_while_dsl_has_no_kernel(self):
        signal = fold_while(
            initial=0,
            compose=lambda acc, u, v, s: acc + 1,
            exit_when=lambda acc, u, v, s: acc >= 2,
        )
        assert signal.kernel is None

    def test_compatible_rejects_missing_or_reshaped_fields(self):
        spec = instrument_signal(bfs_mod.bottom_up_signal).kernel
        state = StateStore(5)
        assert not spec.compatible(state)  # frontier missing
        state.add_array("frontier", bool, False)
        assert spec.compatible(state)
        state.set("frontier", np.zeros((5, 2)))  # wrong rank
        assert not spec.compatible(state)
        state.set("frontier", [False] * 5)  # not an ndarray
        assert not spec.compatible(state)

    def test_compatible_rejects_array_valued_scalar(self):
        spec = instrument_signal(kcore_mod.kcore_signal).kernel
        state = StateStore(4)
        for name in spec.arrays:
            state.add_array(name, np.int64, 0)
        for name in spec.scalars:
            state.add_scalar(name, 3)
        assert spec.compatible(state)
        state.set(spec.scalars[0], np.arange(4))
        assert not spec.compatible(state)


# -- registry --------------------------------------------------------------


class TestRegistry:
    def test_builtin_kinds_registered(self):
        kinds = available_kernels()
        for kind in (
            FIRST_MATCH_BREAK, COUNT_TO_K_BREAK, FULL_SCAN_SUM, FULL_SCAN_MIN,
            PUSH_GATHER, *SLOT_KINDS,
        ):
            assert kind in kinds
            assert callable(get_kernel(kind))

    def test_unknown_kind_is_none(self):
        assert get_kernel("no_such_kernel") is None

    def test_register_and_override(self):
        saved = dict(kernel_registry._REGISTRY)
        try:
            @register_kernel("test_custom_kind")
            def custom(spec, state, local, vertices, carried_in=None):
                return "custom"

            assert get_kernel("test_custom_kind") is custom
            assert "test_custom_kind" in available_kernels()

            # later registrations override earlier ones
            @register_kernel("test_custom_kind")
            def replacement(spec, state, local, vertices, carried_in=None):
                return "replacement"

            assert get_kernel("test_custom_kind") is replacement
        finally:
            kernel_registry._REGISTRY.clear()
            kernel_registry._REGISTRY.update(saved)


# -- batched CSR kernels vs a straight-line interpretation ------------------


def toy_adjacency(n, edges):
    """A LocalAdjacency over ``n`` global vertices from (dst, srcs) pairs."""
    counts = np.zeros(n, dtype=np.int64)
    indices = []
    for dst in range(n):
        srcs = edges.get(dst, [])
        counts[dst] = len(srcs)
        indices.extend(srcs)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return LocalAdjacency(indptr, np.array(indices, dtype=np.int64), None)


class TestKernelsMatchInterpreter:
    N = 7
    EDGES = {0: [1, 2, 3], 1: [0, 4], 2: [5, 6, 0, 1], 4: [2], 5: [3, 4, 6]}
    VERTICES = np.array([0, 1, 2, 4, 5], dtype=np.int64)  # nonzero degree

    def run_interpreter(self, signal, state, local, vertices):
        """Reference: run the plain UDF per vertex, counting scans.

        The neighbor iterable tracks how many ids it handed out and
        whether the loop abandoned it mid-iteration (a ``break``).
        """
        edges, emits, values, broke = [], [], [], []
        for v in vertices.tolist():
            out = []
            scanned = 0
            did_break = False

            def nbrs_iter(v=v):
                nonlocal scanned, did_break
                for u in local.neighbors(v):
                    scanned += 1
                    did_break = True  # assume break; cleared on resume
                    yield int(u)
                    did_break = False

            class Nbrs:
                def __iter__(self_inner):
                    return nbrs_iter()

            signal(v, Nbrs(), state, out.append)
            edges.append(scanned)
            emits.append(bool(out))
            values.append(out[0] if out else 0)
            broke.append(did_break)
        return (
            np.array(edges),
            np.array(emits),
            np.array(values),
            np.array(broke),
        )

    def test_first_match_break(self):
        def toy(v, nbrs, s, emit):
            for u in nbrs:
                if s.flag[u]:
                    emit(u)
                    break

        spec = instrument_signal(toy).kernel
        assert spec is not None and spec.kind == FIRST_MATCH_BREAK
        local = toy_adjacency(self.N, self.EDGES)
        state = StateStore(self.N)
        state.add_array("flag", bool, False)
        state.flag[[4, 6]] = True
        batch = get_kernel(spec.kind)(spec, state, local, self.VERTICES)
        edges, emits, values, broke = self.run_interpreter(
            toy, state, local, self.VERTICES
        )
        assert np.array_equal(batch.edges, edges)
        assert np.array_equal(batch.emit_mask, emits)
        assert np.array_equal(batch.values[batch.emit_mask], values[emits])
        assert np.array_equal(batch.broke, broke)

    def test_count_to_k_with_carried_restore(self):
        def toy(v, nbrs, s, emit):
            cnt = s.seen[v]
            start = cnt
            for u in nbrs:
                if s.alive[u]:
                    cnt += 1
                    if cnt >= s.k:
                        break
            if cnt > start:
                emit(cnt - start)

        spec = instrument_signal(toy).kernel
        assert spec is not None and spec.kind == COUNT_TO_K_BREAK
        local = toy_adjacency(self.N, self.EDGES)
        state = StateStore(self.N)
        state.add_array("seen", np.int64, 0)
        state.add_array("alive", bool, True)
        state.alive[[3, 6]] = False
        state.add_scalar("k", 2)

        # restored counts for two of the batch vertices, as the
        # circulant hand-off would supply them (float64 wire dtype)
        present = np.array([False, True, False, True, False])
        restored = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
        kernel = get_kernel(spec.kind)
        batch = kernel(
            spec, state, local, self.VERTICES, carried_in=(present, restored)
        )

        # reference: seed the counter with the restored value
        edges, emits, values, carried = [], [], [], []
        for i, v in enumerate(self.VERTICES.tolist()):
            cnt = restored[i] if present[i] else state.seen[v]
            start = cnt
            scanned = 0
            broke = False
            for u in local.neighbors(v):
                scanned += 1
                if state.alive[u]:
                    cnt += 1
                    if cnt >= state.k:
                        broke = True
                        break
            edges.append(scanned)
            emits.append(cnt > start)
            values.append(cnt - start)
            carried.append(float(cnt))
        assert np.array_equal(batch.edges, np.array(edges))
        assert np.array_equal(batch.emit_mask, np.array(emits))
        assert np.array_equal(
            batch.values[batch.emit_mask],
            np.array(values)[np.array(emits)],
        )
        assert np.array_equal(batch.carried, np.array(carried))

    def test_full_scan_sum_matches_sequential_addition(self):
        def toy(v, nbrs, s, emit):
            total = s.base[v]
            start = total
            for u in nbrs:
                total += s.contrib[u]
            if total > start:
                emit(total - start)

        spec = instrument_signal(toy).kernel
        assert spec is not None and spec.kind == FULL_SCAN_SUM
        local = toy_adjacency(self.N, self.EDGES)
        state = StateStore(self.N)
        rng = np.random.default_rng(5)
        state.add_array("base", np.float64, 0.0)
        state.base[:] = rng.random(self.N)
        state.add_array("contrib", np.float64, 0.0)
        state.contrib[:] = rng.random(self.N) * 1e-3
        batch = get_kernel(spec.kind)(spec, state, local, self.VERTICES)
        for i, v in enumerate(self.VERTICES.tolist()):
            total = state.base[v]
            for u in local.neighbors(v):
                total += state.contrib[u]  # left-to-right, like the UDF
            # bit-identical, not just close
            assert batch.carried[i] == total
            assert batch.values[i] == total - state.base[v]
        assert np.array_equal(batch.edges, local.degrees()[self.VERTICES])

    def test_full_scan_min(self):
        def toy(v, nbrs, s, emit):
            best = s.label[v]
            for u in nbrs:
                if s.label[u] < best:
                    best = s.label[u]
            if best < s.label[v]:
                emit(best)

        spec = instrument_signal(toy).kernel
        assert spec is not None and spec.kind == FULL_SCAN_MIN
        local = toy_adjacency(self.N, self.EDGES)
        state = StateStore(self.N)
        state.add_array("label", np.int64, 0)
        state.label[:] = [3, 1, 4, 1, 5, 9, 2]
        batch = get_kernel(spec.kind)(spec, state, local, self.VERTICES)
        for i, v in enumerate(self.VERTICES.tolist()):
            best = min(
                int(state.label[v]),
                min(int(state.label[u]) for u in local.neighbors(v)),
            )
            assert batch.carried[i] == best
            assert batch.emit_mask[i] == (best < state.label[v])

    def test_empty_batch(self):
        spec = instrument_signal(bfs_mod.bottom_up_signal).kernel
        local = toy_adjacency(self.N, self.EDGES)
        state = StateStore(self.N)
        state.add_array("frontier", bool, False)
        batch = get_kernel(spec.kind)(
            spec, state, local, np.zeros(0, dtype=np.int64)
        )
        assert batch.edges.size == 0
        assert batch.emit_mask.size == 0


# -- escape hatch ----------------------------------------------------------


class TestEscapeHatch:
    def test_use_kernels_false_disables_fast_path(self):
        graph = to_undirected(erdos_renyi(40, 160, seed=9))
        part = OutgoingEdgeCut().partition(graph, 3)
        on = SympleGraphEngine(part, SympleOptions(use_kernels=True))
        off = SympleGraphEngine(part, SympleOptions(use_kernels=False))
        assert on.use_kernels and not off.use_kernels
        r_on = bfs_mod.bfs(on, 0, mode="bottomup")
        r_off = bfs_mod.bfs(off, 0, mode="bottomup")
        assert np.array_equal(r_on.depth, r_off.depth)
        assert on.counters.summary() == off.counters.summary()
