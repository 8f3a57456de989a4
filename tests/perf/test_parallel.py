"""Unit tests for the parallel executor (repro.perf.parallel)."""

import os
import time

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import counter, gauge, get_registry
from repro.obs.spans import (
    disable_tracing,
    enable_tracing,
    get_trace,
    iter_spans,
    reset_trace,
    span,
)
from repro.perf import parallel
from repro.perf.parallel import GATE_ENV, WORKERS_ENV, \
    ParallelExecutor, available_cores, resolve_workers, shutdown_pools


def _shared_affine(state, item):
    """Module-level task for map_shared (workers unpickle by name)."""
    return state["scale"] * item + state["offset"]


def _shared_probe(state, item):
    counter("test_map_shared_probe_total").inc()
    return state["offset"] + item


def _shared_boom(state, item):
    raise ValueError(f"bad item {item}")


def _square(state, item):
    return item * item


def _nested_outer(state, item):
    """Starts an executor inside a worker; it must run serial."""
    inner = ParallelExecutor(workers=4).map_shared(
        _shared_affine, [item, item * 10], state=state)
    return sum(inner)


def _count_probe(state, item):
    counter("test_parallel_probe_total").inc()
    return item


def _gauge_probe(state, item):
    gauge("test_parallel_probe_gauge").set(item)
    return item


def _span_task(state, item):
    """Opens one span named ``state["name"]`` around a short sleep."""
    with span(state["name"], item=item):
        time.sleep(state.get("sleep", 0.0))
    return item


@pytest.fixture(autouse=True)
def _gate_off(monkeypatch):
    """Disable the available-core gate: these tests assert actual
    forking behavior and must not silently go serial on a 1-core CI
    box."""
    monkeypatch.setenv(GATE_ENV, "0")


@pytest.fixture(autouse=True)
def fresh_pools():
    """Every test starts and ends without a live persistent pool."""
    shutdown_pools()
    yield
    shutdown_pools()


def _pools():
    return get_registry().snapshot().get(
        "parallel_pools_total", {}).get("value", 0)


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1

    def test_env_supplies_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers() == 3

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(2) == 2

    def test_blank_env_ignored(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "  ")
        assert resolve_workers() == 1

    def test_non_integer_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ConfigurationError):
            resolve_workers()

    @pytest.mark.parametrize("workers", [0, -1])
    def test_non_positive_rejected(self, workers):
        with pytest.raises(ConfigurationError):
            resolve_workers(workers)


class TestMap:
    def test_serial_preserves_order(self):
        result = ParallelExecutor(workers=1).map_shared(
            _square, range(10), state=None)
        assert result == [x * x for x in range(10)]

    def test_parallel_preserves_order(self):
        result = ParallelExecutor(workers=3).map_shared(
            _square, range(20), state=None)
        assert result == [x * x for x in range(20)]

    def test_single_item_stays_serial(self):
        pools = _pools()
        assert ParallelExecutor(workers=4).map_shared(
            _square, [3], state=None) == [9]
        assert _pools() == pools

    def test_serial_exception_propagates(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=1).map_shared(
                _shared_boom, [1, 2], state=None)

    def test_closure_state_inherited_by_fork(self):
        """The shared state reaches the workers through the fork."""
        result = ParallelExecutor(workers=2).map_shared(
            _shared_affine, [1, 2, 3, 4],
            state={"scale": 1, "offset": 41})
        assert result == [42, 43, 44, 45]

    def test_nested_executor_stays_serial(self):
        pools = _pools()
        result = ParallelExecutor(workers=2).map_shared(
            _nested_outer, [1, 2, 3, 4],
            state={"scale": 1, "offset": 1})
        assert result == [13, 24, 35, 46]
        # One pool for the outer map; the inner maps forked nothing.
        assert _pools() == pools + 1


class TestMapShared:
    """map_shared: the persistent-pool path keyed on (state, version)."""

    @staticmethod
    def _reuses():
        return get_registry().snapshot().get(
            "parallel_pool_reuse_total", {}).get("value", 0)

    def test_serial_preserves_order(self):
        state = {"scale": 3, "offset": 1}
        result = ParallelExecutor(workers=1).map_shared(
            _shared_affine, range(10), state=state)
        assert result == [3 * x + 1 for x in range(10)]

    def test_parallel_preserves_order(self):
        state = {"scale": 2, "offset": 5}
        result = ParallelExecutor(workers=3).map_shared(
            _shared_affine, range(20), state=state)
        assert result == [2 * x + 5 for x in range(20)]

    def test_pool_reused_across_calls(self):
        state = {"scale": 1, "offset": 0}
        executor = ParallelExecutor(workers=2)
        pools_before = _pools()
        reuses_before = self._reuses()
        first = executor.map_shared(_shared_affine, range(8),
                                    state=state)
        second = executor.map_shared(_shared_affine, range(8, 16),
                                     state=state)
        assert first == list(range(8))
        assert second == list(range(8, 16))
        # One fork serves both calls; the second is a recorded reuse.
        assert _pools() == pools_before + 1
        assert self._reuses() == reuses_before + 1

    def test_version_bump_invalidates_pool(self):
        state = {"scale": 1, "offset": 0}
        executor = ParallelExecutor(workers=2)
        pools_before = _pools()
        executor.map_shared(_shared_affine, range(6), state=state,
                            version=0)
        executor.map_shared(_shared_affine, range(6), state=state,
                            version=1)
        # A stale forked memory image must never serve a new version.
        assert _pools() == pools_before + 2

    def test_different_state_invalidates_pool(self):
        executor = ParallelExecutor(workers=2)
        pools_before = _pools()
        executor.map_shared(_shared_affine, range(6),
                            state={"scale": 1, "offset": 0})
        executor.map_shared(_shared_affine, range(6),
                            state={"scale": 1, "offset": 9})
        assert _pools() == pools_before + 2

    def test_gated_serial_same_results(self, monkeypatch):
        monkeypatch.delenv(GATE_ENV, raising=False)
        monkeypatch.setattr(parallel, "available_cores", lambda: 1)
        pools_before = _pools()
        result = ParallelExecutor(workers=4).map_shared(
            _shared_affine, range(8), state={"scale": 4, "offset": 2})
        assert result == [4 * x + 2 for x in range(8)]
        assert _pools() == pools_before

    def test_single_item_stays_serial(self):
        pools_before = _pools()
        result = ParallelExecutor(workers=4).map_shared(
            _shared_affine, [3], state={"scale": 2, "offset": 0})
        assert result == [6]
        assert _pools() == pools_before

    def test_counters_merged_from_workers(self):
        probe = counter("test_map_shared_probe_total")
        before = probe.value
        ParallelExecutor(workers=2).map_shared(
            _shared_probe, range(8), state={"offset": 0})
        assert probe.value == before + 8

    def test_worker_exception_propagates_and_pool_resets(self):
        executor = ParallelExecutor(workers=2)
        with pytest.raises(ValueError):
            executor.map_shared(_shared_boom, range(4), state={})
        # The pool was torn down: the next call forks a fresh one and
        # still works.
        result = executor.map_shared(
            _shared_affine, range(4), state={"scale": 1, "offset": 0})
        assert result == list(range(4))


class TestWorkerMetrics:
    def test_counters_merged_from_workers(self):
        probe = counter("test_parallel_probe_total")
        before = probe.value
        ParallelExecutor(workers=3).map_shared(_count_probe, range(8),
                                               state=None)
        assert probe.value == before + 8

    def test_gauges_not_clobbered_by_workers(self):
        probe = gauge("test_parallel_probe_gauge")
        probe.set(7)
        ParallelExecutor(workers=2).map_shared(_gauge_probe, range(4),
                                               state=None)
        assert probe.value == 7

    def test_overhead_counters_recorded(self):
        def snap():
            metrics = get_registry().snapshot()
            return {name: metrics.get(name, {}).get("value", 0.0)
                    for name in ("parallel.pickle_bytes",
                                 "parallel.fork_ms",
                                 "parallel.merge_ms")}

        before = snap()
        ParallelExecutor(workers=2).map_shared(_square, range(8),
                                               state=None)
        after = snap()
        # Every parallel map pays fork + merge and ships results over
        # a pipe; the counters must account all three.
        assert after["parallel.pickle_bytes"] \
            > before["parallel.pickle_bytes"]
        assert after["parallel.fork_ms"] > before["parallel.fork_ms"]
        assert after["parallel.merge_ms"] > before["parallel.merge_ms"]

    def test_serial_map_pays_no_overhead(self):
        fork_before = get_registry().snapshot().get(
            "parallel.fork_ms", {}).get("value", 0.0)
        ParallelExecutor(workers=1).map_shared(_square, range(8),
                                               state=None)
        fork_after = get_registry().snapshot().get(
            "parallel.fork_ms", {}).get("value", 0.0)
        assert fork_after == fork_before


class TestWorkerSpans:
    @pytest.fixture(autouse=True)
    def clean_tracer(self):
        reset_trace()
        yield
        disable_tracing()
        reset_trace()

    def test_worker_spans_graft_into_parent_trace(self):
        enable_tracing()
        with span("test.parent"):
            ParallelExecutor(workers=2).map_shared(
                _span_task, range(12),
                state={"name": "test.worker_restage", "sleep": 0.002})
        nodes = [n for root in get_trace()["spans"]
                 for n in iter_spans(root)]
        worker_spans = [n for n in nodes
                        if n["name"] == "test.worker_restage"]
        assert len(worker_spans) == 12
        pids = {n["pid"] for n in worker_spans}
        # Spans ran in forked workers and kept their pids — that is
        # what gives each worker its own Chrome-trace lane.
        assert os.getpid() not in pids
        for node in worker_spans:
            assert node["wall_ms"] > 0
            assert node["attributes"]["item"] in range(12)

    def test_worker_spans_nest_under_the_calling_span(self):
        enable_tracing()
        with span("test.outer"):
            ParallelExecutor(workers=2).map_shared(
                _span_task, range(4), state={"name": "test.nested_task"})
        (root,) = get_trace()["spans"]
        assert root["name"] == "test.outer"
        names = {n["name"] for n in iter_spans(root)}
        assert "test.nested_task" in names

    def test_no_span_shipping_when_tracing_disabled(self):
        ParallelExecutor(workers=2).map_shared(
            _span_task, range(4), state={"name": "test.invisible"})
        assert get_trace()["spans"] == []


class TestCoreGating:
    def test_available_cores_positive(self):
        assert available_cores() >= 1

    def test_oversubscribed_map_gates_serial(self, monkeypatch):
        monkeypatch.delenv(GATE_ENV, raising=False)
        monkeypatch.setattr(parallel, "available_cores", lambda: 1)
        pools_before = _pools()
        gated_before = get_registry().snapshot().get(
            "parallel_gated_serial_total", {}).get("value", 0.0)
        result = ParallelExecutor(workers=4).map_shared(
            _square, range(8), state=None)
        metrics = get_registry().snapshot()
        # Same results, no pool forked, and the fallback is counted.
        assert result == [x * x for x in range(8)]
        assert _pools() == pools_before
        assert metrics["parallel_gated_serial_total"]["value"] \
            == gated_before + 1

    def test_workers_within_cores_not_gated(self, monkeypatch):
        monkeypatch.delenv(GATE_ENV, raising=False)
        monkeypatch.setattr(parallel, "available_cores", lambda: 8)
        pools_before = _pools()
        result = ParallelExecutor(workers=2).map_shared(
            _shared_affine, range(6), state={"scale": 1, "offset": 1})
        assert result == [x + 1 for x in range(6)]
        assert _pools() == pools_before + 1

    def test_gate_env_escape_hatch(self, monkeypatch):
        monkeypatch.setenv(GATE_ENV, "0")
        monkeypatch.setattr(parallel, "available_cores", lambda: 1)
        pools_before = _pools()
        ParallelExecutor(workers=2).map_shared(_square, range(4),
                                               state=None)
        assert _pools() == pools_before + 1
