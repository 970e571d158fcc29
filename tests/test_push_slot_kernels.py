"""Push-signal and slot-fold kernels against the interpreter.

The ``push_gather`` kernel and the ``slot_sum``/``slot_min``/
``slot_first`` folds replace one Python call per edge and one per
update.  They must be invisible: the same state, the same ``changed``
order, the same counters, and the same per-pair traffic as
``use_kernels=False`` — on every engine and executor, with a delivery
hook or a trace log forcing per-message sends, and on adversarial
values (NaN, infinities, signed zeros, repeated destinations).
"""

import numpy as np
import pytest

from repro.algorithms import bfs, connected_components, pagerank
from repro.algorithms.bfs import _push_signal, _visit_slot
from repro.algorithms.cc import _min_slot
from repro.algorithms.mis import (
    _deactivate_push_signal,
    _deactivate_slot,
    _not_minimum_slot,
)
from repro.algorithms.pagerank import _accumulate_slot
from repro.algorithms.sssp import _relax_slot
from repro.analysis.ast_analysis import analyze_parsed, parse_signal
from repro.analysis.kernelspec import (
    PUSH_GATHER,
    SLOT_FIRST,
    SLOT_MIN,
    SLOT_SUM,
    classify_push,
    classify_slot,
)
from repro.analysis.verify import certify_spec
from repro.engine import make_engine
from repro.engine.async_mode import (
    _async_visit_slot,
    _pr_accumulate_slot,
    _pr_push_signal,
    async_cc,
    async_pagerank,
    async_sssp,
)
from repro.engine.base import _UpdateBuffer
from repro.engine.state import StateStore
from repro.errors import KernelSoundnessError
from repro.exec import make_executor
from repro.fault import FaultController, FaultPlan, MessageFault
from repro.graph import rmat, to_undirected
from repro.graph.generators import random_weights
from repro.kernels import get_kernel
from repro.obs import ObsHub

ENGINES = ("symple", "gemini", "single", "dgalois")
EXECUTORS = ("serial", "thread", "process")


@pytest.fixture(scope="module")
def graph():
    return rmat(scale=7, edge_factor=6, a=0.6, b=0.15, c=0.15, seed=5)


@pytest.fixture
def executors():
    """Executor factory; one fresh executor per engine, closed after."""
    made = []

    def make(kind):
        ex = make_executor(kind, workers=None if kind == "serial" else 2)
        made.append(ex)
        return ex

    yield make
    for ex in made:
        ex.close()


# -- helpers ---------------------------------------------------------------


def _pr_state(engine, rng):
    n = engine.graph.num_vertices
    s = engine.new_state()
    s.set("residual", rng.random(n))
    s.set("push_value", np.where(rng.random(n) < 0.2, 0.0, rng.random(n)))
    return s


def _bfs_state(engine, rng):
    n = engine.graph.num_vertices
    s = engine.new_state()
    s.set("visited", rng.random(n) < 0.3)
    s.add_array("parent", np.int64, -1)
    s.add_array("depth", np.int64, -1)
    s.add_array("next_frontier", bool, False)
    s.add_scalar("level", 3)
    return s


def _mis_state(engine, rng):
    s = engine.new_state()
    s.set("active", rng.random(engine.graph.num_vertices) < 0.6)
    return s


#: every registered (push signal, slot) pair and its state builder
PAIRS = {
    "pagerank": (_pr_push_signal, _pr_accumulate_slot, _pr_state),
    "bfs": (_push_signal, _visit_slot, _bfs_state),
    "mis": (_deactivate_push_signal, _deactivate_slot, _mis_state),
}


def _engine(kind, graph, use_kernels, executor=None, machines=4):
    engine = make_engine(kind, graph, machines, executor=executor)
    engine.use_kernels = use_kernels
    return engine


def _push_waves(engine, name, waves=3, seed=0):
    """Drive a few push phases; the per-phase (changed, applied, edges)."""
    signal, slot, build = PAIRS[name]
    rng = np.random.default_rng(seed)
    state = build(engine, rng)
    log = []
    for wave in range(waves):
        frontier = rng.random(engine.graph.num_vertices) < 0.25
        if wave == waves - 1:
            frontier[:] = False  # an empty frontier must be a no-op
        result = engine.push(signal, slot, state, frontier, update_bytes=12)
        log.append((result.changed.tolist(), result.updates_applied,
                    result.edges_traversed))
    return state, log


def _assert_engines_identical(a, b):
    assert a.counters.summary() == b.counters.summary()
    for tag in a.network.traffic:
        assert np.array_equal(a.network.traffic[tag], b.network.traffic[tag]), tag
        assert np.array_equal(
            a.network.message_counts[tag], b.network.message_counts[tag]
        ), tag
    assert a.network.log == b.network.log


def _assert_states_identical(a, b):
    assert list(a) == list(b)
    for name in a:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype, name
            if x.dtype.kind == "f":
                # NaN where NaN (a generated NaN's sign bit differs
                # between NumPy's scalar and vector loops); bitwise
                # elsewhere, which tells -0.0 from 0.0
                nan = np.isnan(x)
                assert np.array_equal(nan, np.isnan(y)), name
                x, y = x[~nan], y[~nan]
            assert x.tobytes() == y.tobytes(), name
        else:
            assert x == y, name


# -- classification --------------------------------------------------------


class TestClassifier:
    @pytest.mark.parametrize(
        "fn, roles",
        [
            (_pr_push_signal, {"value"}),
            (_push_signal, {"skip", "value"}),
            (_deactivate_push_signal, {"keep", "value"}),
        ],
    )
    def test_push_signals_lower(self, fn, roles):
        spec = classify_push(fn)
        assert spec is not None and spec.kind == PUSH_GATHER
        assert set(spec.exprs) == roles

    @pytest.mark.parametrize(
        "fn, kind",
        [
            (_accumulate_slot, SLOT_SUM),
            (_pr_accumulate_slot, SLOT_SUM),
            (_min_slot, SLOT_MIN),
            (_relax_slot, SLOT_MIN),
            (_visit_slot, SLOT_FIRST),
            (_deactivate_slot, SLOT_FIRST),
        ],
    )
    def test_slots_lower(self, fn, kind):
        spec = classify_slot(fn)
        assert spec is not None and spec.kind == kind

    def test_slot_reading_a_written_array_stays_interpreted(self):
        # s.depth[v] = s.depth[parent] + 1 reads the array it writes
        assert classify_slot(_async_visit_slot) is None

    def test_guard_without_closing_write_stays_interpreted(self):
        assert classify_slot(_not_minimum_slot) is None
        assert classify_slot(_open_guard_slot) is None

    def test_side_effecting_push_stays_interpreted(self):
        assert classify_push(_counting_push) is None
        assert classify_push(_global_push) is None

    def test_signals_are_not_slots(self):
        assert classify_slot(_pr_push_signal) is None
        assert classify_push(_visit_slot) is None


PUSHED = []


def _counting_push(u, v, s):
    PUSHED.append(u)
    return u


def _global_push(u, v, s):
    global PUSHED
    return u


def _open_guard_slot(v, value, s):
    if s.flag[v]:
        return False
    s.out[v] = value
    return True


def _reach_slot_like(v, value, s):
    if s.flag[v]:
        return False
    s.flag[v] = True
    return True


def _min_slot_as_sum(v, value, s):
    s.label[v] += value
    return True


def _float_into_int_slot(v, value, s):
    s.count[v] += value
    return True


def _float_push(u, v, s):
    return s.weight[u]


# -- slot folds on adversarial buffers -------------------------------------


SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -2.0, 1e-300])


def _apply_both(slot, build, vertices, values):
    """(interpreted state, changed) and (kernel state, changed)."""
    spec = classify_slot(slot)
    kernel = get_kernel(spec.kind)
    slow, fast = build(), build()
    buffer = _UpdateBuffer()
    buffer.add(vertices, values)
    changed_slow, applied = buffer.apply(slot, slow)
    assert applied == len(vertices)
    changed_fast = kernel(spec, fast, vertices, np.asarray(values))
    assert changed_fast is not None
    return slow, changed_slow, fast, changed_fast


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestSlotFolds:
    n = 12

    def _float_state(self, name, rng):
        def build():
            s = StateStore(self.n)
            init = np.resize(SPECIALS, self.n)
            s.set(name, np.array(init))
            return s
        return build

    @pytest.mark.parametrize("seed", range(6))
    def test_min_relax_special_values(self, seed):
        rng = np.random.default_rng(seed)
        vertices = rng.integers(0, self.n, size=60)
        values = rng.choice(SPECIALS, size=60)
        slow, cs, fast, cf = _apply_both(
            _relax_slot, self._float_state("dist", rng), vertices, values
        )
        _assert_states_identical(slow, fast)
        assert cs.tolist() == cf.tolist()

    @pytest.mark.parametrize("seed", range(6))
    def test_min_relax_float_into_int_truncates_like_the_interpreter(
        self, seed
    ):
        rng = np.random.default_rng(seed)

        def build():
            s = StateStore(self.n)
            s.set("label", np.arange(self.n, dtype=np.int64) - 4)
            return s

        vertices = rng.integers(0, self.n, size=50)
        values = rng.uniform(-8, 12, size=50)
        values[::7] = np.nan
        values[::11] = np.inf  # never passes the strict relax
        slow, cs, fast, cf = _apply_both(_min_slot, build, vertices, values)
        _assert_states_identical(slow, fast)
        assert cs.tolist() == cf.tolist()

    def test_min_relax_non_finite_int_cast_declines(self):
        s = StateStore(3)
        s.set("label", np.array([5, 5, 5]))
        out = get_kernel(SLOT_MIN)(
            classify_slot(_min_slot), s, np.array([0, 1]),
            np.array([1.5, -np.inf]),
        )
        assert out is None and s.label.tolist() == [5, 5, 5]

    def test_min_relax_signed_zero_tie_keeps_first(self):
        build = self._float_state("dist", None)
        vertices = np.array([1, 1, 5, 5])  # dist[1] = inf, dist[5] = 1.5
        for values in ([-0.0, 0.0, 0.0, -0.0], [0.0, -0.0, -0.0, 0.0]):
            slow, cs, fast, cf = _apply_both(
                _relax_slot, build, vertices, np.array(values)
            )
            _assert_states_identical(slow, fast)
            assert np.signbit(fast.dist[1]) == np.signbit(values[0])
            assert cs.tolist() == cf.tolist() == [1, 5]

    @pytest.mark.parametrize("seed", range(6))
    def test_sum_fold_special_values(self, seed):
        rng = np.random.default_rng(seed)
        vertices = rng.integers(0, self.n, size=80)
        values = rng.choice(SPECIALS, size=80) * rng.random(80)
        slow, cs, fast, cf = _apply_both(
            _pr_accumulate_slot, self._float_state("residual", rng),
            vertices, values,
        )
        _assert_states_identical(slow, fast)
        assert cs.tolist() == cf.tolist()

    def test_sum_fold_rounds_in_buffer_order(self):
        build = self._float_state("residual", None)
        vertices = np.zeros(4, dtype=np.int64) + 3
        values = np.array([1e16, 1.0, -1e16, 1.0])
        slow, _, fast, _ = _apply_both(
            _pr_accumulate_slot, build, vertices, values
        )
        _assert_states_identical(slow, fast)

    @pytest.mark.parametrize("seed", range(6))
    def test_first_update_wins(self, seed):
        rng = np.random.default_rng(seed)

        def build():
            s = StateStore(self.n)
            s.set("visited", np.arange(self.n) % 3 == 0)
            s.add_array("parent", np.int64, -1)
            s.add_array("depth", np.int64, -1)
            s.add_array("next_frontier", bool, False)
            s.add_scalar("level", 4)
            return s

        vertices = rng.integers(0, self.n, size=40)
        values = rng.integers(0, self.n, size=40)
        slow, cs, fast, cf = _apply_both(_visit_slot, build, vertices, values)
        _assert_states_identical(slow, fast)
        assert cs.tolist() == cf.tolist()

    def test_empty_buffer(self):
        engine = make_engine("single", rmat(scale=4, seed=1))
        state = engine.new_state()
        state.add_array("residual", np.float64, 0.0)
        changed, applied = engine._apply_updates(
            _UpdateBuffer(), _pr_accumulate_slot, state
        )
        assert changed.size == 0 and applied == 0

    def test_dtype_mismatch_declines_before_writing(self):
        spec = classify_slot(_float_into_int_slot)
        assert spec is not None and spec.kind == SLOT_SUM
        s = StateStore(4)
        s.add_array("count", np.int64, 0)
        out = get_kernel(SLOT_SUM)(
            spec, s, np.array([0, 1]), np.array([0.5, 2.5])
        )
        assert out is None
        assert s.count.tolist() == [0, 0, 0, 0]

    def test_mixed_chunk_dtypes(self):
        buffer = _UpdateBuffer()
        buffer.add(np.array([0]), np.array([1], dtype=np.int64))
        buffer.add(np.array([1]), np.array([1.5]))
        vertices, values = buffer.arrays()
        assert vertices.tolist() == [0, 1] and values.tolist() == [1.0, 1.5]
        # an int that float64 cannot hold exactly, or a bool chunk,
        # keeps the buffer on the interpreter
        buffer.add(np.array([2]), np.array([2**53]))
        assert buffer.arrays() is None
        buffer = _UpdateBuffer()
        buffer.add(np.array([0]), np.array([True]))
        buffer.add(np.array([1]), np.array([1.5]))
        assert buffer.arrays() is None

    def test_mixed_int_float_min_relax_matches_interpreter(self):
        def build():
            s = StateStore(6)
            s.set("label", np.array([2**62, 7, -(2**62), 3, 0, 9]))
            return s

        slow, fast = build(), build()
        chunks = [
            (np.array([0, 1, 2, 5]), np.array([5, 6, 1, 9], dtype=np.int64)),
            (np.array([1, 3, 0, 5]), np.array([5.5, 2.9, 4.0, 8.99])),
        ]
        buffers = []
        for _ in range(2):
            buffer = _UpdateBuffer()
            for vs, vals in chunks:
                buffer.add(vs, vals)
            buffers.append(buffer)
        changed_slow, _ = buffers[0].apply(_min_slot, slow)
        spec = classify_slot(_min_slot)
        changed_fast = get_kernel(SLOT_MIN)(spec, fast, *buffers[1].arrays())
        _assert_states_identical(slow, fast)
        assert changed_slow.tolist() == changed_fast.tolist()

    def test_float_fold_into_int_array_runs_the_interpreter(self, graph):
        """Through the engine: the fold declines, the interpreter runs
        (and is counted), and the result equals use_kernels=False."""
        results = []
        for use_kernels in (True, False):
            hub = ObsHub()
            engine = make_engine("gemini", graph, 3, obs=hub)
            engine.use_kernels = use_kernels
            s = engine.new_state()
            s.set("weight", np.linspace(0.25, 3.0, graph.num_vertices))
            s.add_array("count", np.int64, 0)
            result = engine.push(
                _float_push, _float_into_int_slot, s,
                np.ones(graph.num_vertices, dtype=bool),
            )
            interp = hub.metrics.get("repro_interp_edges_total")
            assert interp.value(path="slot") == result.updates_applied > 0
            results.append((s.count.copy(), result.changed.tolist()))
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]


# -- engine-level equivalence ----------------------------------------------


class TestPushEquivalence:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("engine_kind", ENGINES)
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_kernel_matches_interpreter(
        self, graph, executors, executor, engine_kind, pair
    ):
        runs = []
        for use_kernels in (True, False):
            engine = _engine(engine_kind, graph, use_kernels,
                             executors(executor))
            state, log = _push_waves(engine, pair)
            runs.append((engine, state, log))
        (fast, fast_state, fast_log), (slow, slow_state, slow_log) = runs
        assert fast_log == slow_log
        assert any(changed for changed, _, _ in fast_log) or pair == "mis"
        _assert_states_identical(fast_state, slow_state)
        _assert_engines_identical(fast, slow)

    @pytest.mark.parametrize("engine_kind", ("symple", "gemini", "dgalois"))
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    @pytest.mark.parametrize("mode", ("faults", "trace"))
    def test_per_message_sends(self, graph, engine_kind, pair, mode):
        """A delivery hook or the trace log forces one send per
        message; its draws and log order must match too."""
        runs = []
        for use_kernels in (True, False):
            engine = _engine(engine_kind, graph, use_kernels)
            if mode == "faults":
                plan = FaultPlan(seed=9, messages=(
                    MessageFault("duplicate", 0.3, tag="push"),
                    MessageFault("delay", 0.3, tag="sync"),
                ))
                engine.attach_faults(
                    FaultController(plan, engine.num_machines)
                )
            else:
                engine.network.trace = True
            assert not engine._grouped_sends_ok()
            state, log = _push_waves(engine, pair)
            runs.append((engine, state, log))
        (fast, fast_state, fast_log), (slow, slow_state, slow_log) = runs
        assert fast_log == slow_log
        _assert_states_identical(fast_state, slow_state)
        _assert_engines_identical(fast, slow)
        if mode == "trace":
            assert fast.network.log

    @pytest.mark.parametrize("engine_kind", ("symple", "gemini"))
    def test_more_machines_than_vertices(self, engine_kind):
        tiny = to_undirected(rmat(scale=2, edge_factor=2, seed=4))
        for pair in PAIRS:
            runs = []
            for use_kernels in (True, False):
                engine = _engine(engine_kind, tiny, use_kernels, machines=9)
                runs.append((engine,) + _push_waves(engine, pair, seed=2))
            (fast, fs, fl), (slow, ss, sl) = runs
            assert fl == sl
            _assert_states_identical(fs, ss)
            _assert_engines_identical(fast, slow)

    def test_side_effecting_push_runs_per_edge(self, graph):
        PUSHED.clear()
        engine = _engine("gemini", graph, True)
        s = _bfs_state(engine, np.random.default_rng(0))
        result = engine.push(
            _counting_push, _visit_slot, s,
            np.ones(graph.num_vertices, dtype=bool),
        )
        assert len(PUSHED) == result.edges_traversed > 0


def _recorded(engine, log):
    """Wrap an engine's pull/push to record every phase's changed set."""
    for name in ("pull", "push"):
        inner = getattr(engine, name)

        def wrapper(*args, _inner=inner, _name=name, **kwargs):
            result = _inner(*args, **kwargs)
            log.append((_name, result.changed.tolist()))
            return result

        setattr(engine, name, wrapper)
    return engine


ALGORITHMS = {
    "bfs": lambda eng: bfs(eng, 0),
    "cc": connected_components,
    "pagerank": lambda eng: pagerank(eng, iterations=5),
    "async_pagerank": lambda eng: async_pagerank(eng, seed=1, stop_mass=1e-5),
    "async_cc": lambda eng: async_cc(eng, seed=2),
    "async_sssp": lambda eng: async_sssp(eng, 0, seed=2),
}


class TestAlgorithmEquivalence:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize(
        "engine_kind, algorithm",
        [
            (engine, algorithm)
            for engine in ENGINES
            for algorithm in sorted(ALGORITHMS)
            # dgalois has no async mode
            if engine != "dgalois" or not algorithm.startswith("async")
        ],
    )
    def test_changed_order_and_counters(
        self, graph, executors, executor, engine_kind, algorithm
    ):
        g = random_weights(graph, seed=4) if algorithm == "async_sssp" else graph
        runs = []
        for use_kernels in (True, False):
            log = []
            engine = _recorded(
                _engine(engine_kind, g, use_kernels, executors(executor)),
                log,
            )
            result = ALGORITHMS[algorithm](engine)
            runs.append((engine, result, log))
        (fast, fres, flog), (slow, sres, slog) = runs
        assert flog == slog
        for key, value in vars(fres).items():
            if isinstance(value, np.ndarray):
                assert value.tobytes() == vars(sres)[key].tobytes(), key
        _assert_engines_identical(fast, slow)


class TestInterpreterCounter:
    def test_counts_each_path(self, graph):
        g = random_weights(graph, seed=4)
        seen = {}
        for use_kernels in (True, False):
            hub = ObsHub()
            engine = make_engine("symple", g, 4, obs=hub)
            engine.use_kernels = use_kernels
            async_pagerank(engine, seed=1, stop_mass=1e-5)
            async_sssp(engine, 0, seed=1)
            async_cc(engine, seed=1)
            counter = hub.metrics.get("repro_interp_edges_total")
            seen[use_kernels] = {
                path: counter.value(path=path) if counter else 0.0
                for path in ("pull", "push", "slot")
            }
        # with kernels on only SSSP's weighted pull signal interprets;
        # CC's pull joins it with kernels off
        assert seen[True]["pull"] > 0
        assert seen[True]["push"] == 0 and seen[True]["slot"] == 0
        assert all(seen[False][path] > 0 for path in ("pull", "push", "slot"))
        assert seen[False]["pull"] > seen[True]["pull"]


class TestCertification:
    @pytest.mark.parametrize(
        "fn, classify",
        [
            (_pr_push_signal, classify_push),
            (_push_signal, classify_push),
            (_deactivate_push_signal, classify_push),
            (_pr_accumulate_slot, classify_slot),
            (_relax_slot, classify_slot),
            (_min_slot, classify_slot),
            (_visit_slot, classify_slot),
            (_deactivate_slot, classify_slot),
        ],
    )
    def test_registered_lowerings_certify(self, fn, classify):
        sig = parse_signal(fn)
        certify_spec(sig, analyze_parsed(sig), classify(fn))

    @pytest.mark.parametrize(
        "fn, donor, obligation",
        [
            (_counting_push, _pr_push_signal, "no-calls"),
            (_global_push, _pr_push_signal, "purity"),
            (_async_visit_slot, _visit_slot, "writes-declared"),
            (_open_guard_slot, _reach_slot_like, "writes-declared"),
            (_relax_slot, _pr_accumulate_slot, "writes-declared"),
            (_min_slot, _min_slot_as_sum, "fold-sum"),
        ],
    )
    def test_tampered_pairings_are_refuted(self, fn, donor, obligation):
        spec = classify_slot(donor) or classify_push(donor)
        sig = parse_signal(fn)
        with pytest.raises(KernelSoundnessError) as info:
            certify_spec(sig, analyze_parsed(sig), spec)
        assert info.value.obligation == obligation

    def test_strict_engine_runs_certified_push_and_slot(self, graph):
        engine = make_engine("symple", graph, 4, verify="strict")
        result = async_pagerank(engine, seed=1, stop_mass=1e-5)
        assert result.waves > 0
        assert engine._certified[id(_pr_push_signal)] is True
        assert engine._certified[id(_pr_accumulate_slot)] is True

    def test_strict_engine_refuses_a_tampered_slot_spec(self, graph):
        engine = make_engine("gemini", graph, 3, verify="strict")
        s = _bfs_state(engine, np.random.default_rng(0))
        engine._slot_specs[_visit_slot] = classify_slot(_reach_slot_like)
        with pytest.raises(KernelSoundnessError):
            engine.push(_push_signal, _visit_slot, s,
                        np.ones(graph.num_vertices, dtype=bool))


#: (algorithm, mode) runs whose RunResult digests must not see kernels
DIGEST_RUNS = (
    ("pagerank", "async"), ("sssp", "async"), ("cc", "async"),
    ("bfs", "async"), ("bfs", "sync"), ("pagerank", "sync"),
    ("cc", "sync"), ("mis", "sync"),
)


class TestRunDigests:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("engine_kind", ENGINES)
    def test_digests_match_interpreter(
        self, graph, monkeypatch, engine_kind, executor
    ):
        import repro.api as api
        from repro.api import RunConfig, Session

        kernels = [True]
        build = api.make_engine

        def make_engine_with_switch(*args, **kwargs):
            engine = build(*args, **kwargs)
            engine.use_kernels = kernels[0]
            return engine

        monkeypatch.setattr(api, "make_engine", make_engine_with_switch)
        g = random_weights(graph, seed=2)
        digests = {}
        for use_kernels in (True, False):
            kernels[0] = use_kernels
            base = RunConfig(
                engine=engine_kind, machines=4, seed=3, bfs_roots=2,
                executor=executor,
                workers=None if executor == "serial" else 2,
            )
            with Session(g, base) as session:
                digests[use_kernels] = [
                    (r.digest(), r.fixpoint)
                    for r in (
                        session.run(algorithm=algorithm, mode=mode)
                        for algorithm, mode in DIGEST_RUNS
                        if mode == "sync" or engine_kind != "dgalois"
                    )
                ]
        assert digests[True] == digests[False]
