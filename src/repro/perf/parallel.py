"""Process-parallel fan-out for per-unknown stage-2 work.

The restage is embarrassingly parallel: each unknown's candidate-set
re-fit is a pure function of the fitted linker state, so the unknowns
can be scored on separate cores with no coordination.  The executor
here uses a **fork** process pool so the parent's fitted matrices and
warm :class:`~repro.perf.cache.ProfileCache` are shared with every
worker read-only (copy-on-write pages — no serialization of the index,
no per-worker re-tokenization).

Determinism is non-negotiable: results come back in submission order,
each task is a pure function of inherited state, and a run with
``workers=4`` is bit-identical to ``workers=1`` (asserted by
``tests/perf/test_equivalence.py``).

Telemetry: each task runs against the worker's (inherited, then reset)
metrics registry and ships a per-task snapshot back with its result;
the parent merges counters and histograms into the live registry, so
``feature_fits_total`` and the cache counters stay truthful under
parallelism.  Worker-side *gauges* are instantaneous values of a dead
process and are dropped.  When tracing is enabled, spans opened inside
workers ship back as dicts and are grafted into the parent's live
trace tree with their worker pid/tid preserved, so ``--trace-chrome``
renders one timeline lane per worker.  Three counters decompose the
overhead the pool pays over the serial path: ``parallel.fork_ms``
(worker spawn-up), ``parallel.pickle_bytes`` (result IPC volume) and
``parallel.merge_ms`` (parent-side result/telemetry folding).

Worker count resolution, in priority order: explicit argument, the
``REPRO_WORKERS`` environment variable, then serial (1).  On platforms
without ``fork`` (or when already inside a worker) the executor
degrades to the serial path — same results, no parallelism.

The pool *persists* across calls (:meth:`ParallelExecutor.map_shared`),
keyed on ``(identity, version)`` of a caller-provided shared state
object that the workers inherited at fork time.  Repeat calls against
the same state version skip the fork entirely
(``parallel_pool_reuse_total`` counts the skips); bumping the version —
e.g. after a refit mutated the shared state — retires the stale pool
and forks a fresh one, because forked workers only ever see the memory
image from their moment of birth.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.logging import get_logger
from repro.obs.metrics import counter, gauge, get_registry
from repro.obs.spans import Span, get_tracer

__all__ = ["ParallelExecutor", "available_cores", "resolve_workers",
           "shutdown_pools", "GATE_ENV", "WORKERS_ENV"]

#: Environment variable supplying the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: Set to ``0``/``off``/``false``/``no`` to disable the available-core
#: gate (e.g. to exercise the fork pool on a single-core CI box).
GATE_ENV = "REPRO_PARALLEL_GATE"

log = get_logger(__name__)

#: Tasks dispatched through executors (serial and parallel).
_TASKS = counter("parallel_tasks_total")
#: Process pools actually forked (serial runs never touch this).
_POOLS = counter("parallel_pools_total")
#: Worker count of the most recent executor.
_WORKERS_GAUGE = gauge("parallel_workers")
#: Bytes of pickled task payloads shipped from workers back to the
#: parent — the per-result IPC volume the fork pool pays that the
#: serial path does not.
_PICKLE_BYTES = counter("parallel.pickle_bytes")
#: Milliseconds spent spawning worker processes (pool start-up).
_FORK_MS = counter("parallel.fork_ms")
#: Milliseconds the parent spends folding worker results, metric
#: snapshots and spans back into its own state.
_MERGE_MS = counter("parallel.merge_ms")
#: Maps gated onto the serial path because requested workers exceeded
#: the cores actually available.
_GATED = counter("parallel_gated_serial_total")
#: map_shared calls that reused an already-forked persistent pool
#: instead of paying the fork again.
_POOL_REUSE = counter("parallel_pool_reuse_total")

#: The shared-state object published to *persistent* pool workers at
#: fork time (see :meth:`ParallelExecutor.map_shared`).
_SHARED: Any = None

#: Set in every pool worker via the pool initializer: any executor
#: created inside a worker (a nested map) runs serial.
_IN_WORKER = False

#: The live persistent pool and the (state id, version, workers) key
#: it was forked for.  One pool at a time: the restage is the only
#: map_shared call site, and a second distinct key means the first
#: state is stale anyway.
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_KEY: Optional[Tuple[int, int, int]] = None


def _probe() -> int:
    """No-op task used to force (and time) worker spawn-up."""
    return os.getpid()


def _mark_worker() -> None:
    """Pool initializer: latch this process as a worker forever."""
    global _IN_WORKER
    _IN_WORKER = True


def _run_shared(payload: Tuple[Callable[[Any, Any], Any], Any],
                ) -> Tuple[Any, dict, List[dict]]:
    """Worker entry: run ``fn(shared_state, item)``, return
    ``(result, metrics delta, span dicts)``.

    The item arrives by pickle (the pool outlives any single call, so
    fork inheritance cannot carry it); only the heavyweight shared
    state — published to :data:`_SHARED` before the fork — rides the
    copy-on-write pages.  The worker's registry is reset before the
    task so the snapshot it ships back is exactly this task's
    increments — the parent can merge deltas from any number of tasks
    without double counting.  The tracer's thread state is likewise
    cleared: the fork inherited the parent's *open* spans on the
    surviving thread's stack, and without the reset the task's spans
    would attach to dead copies of them instead of forming shippable
    root trees.
    """
    fn, item = payload
    registry = get_registry()
    registry.reset()
    tracer = get_tracer()
    tracer.clear_thread_state()
    result = fn(_SHARED, item)
    span_dicts = [s.to_dict() for s in tracer.roots()] \
        if tracer.enabled else []
    # Account the IPC volume *before* the snapshot so the parent sees
    # this task's own pickle bytes in the merged counters.
    _PICKLE_BYTES.inc(len(pickle.dumps((result, span_dicts),
                                       pickle.HIGHEST_PROTOCOL)))
    return result, registry.snapshot(), span_dicts


def shutdown_pools() -> None:
    """Retire the persistent worker pool (if any) and its shared state.

    Called automatically at interpreter exit; safe to call any time —
    the next :meth:`ParallelExecutor.map_shared` simply forks afresh.
    """
    global _POOL, _POOL_KEY, _SHARED
    pool, _POOL, _POOL_KEY, _SHARED = _POOL, None, None, None
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pools)


def available_cores() -> int:
    """CPU cores actually available to this process.

    Prefers ``os.process_cpu_count`` (3.13+), then the scheduling
    affinity mask, then ``os.cpu_count`` — the first is the honest
    answer under cgroup/affinity limits, the rest are fallbacks.
    """
    probe = getattr(os, "process_cpu_count", None)
    if probe is not None:
        cores = probe()
        if cores:
            return cores
    try:
        affinity = os.sched_getaffinity(0)
    except (AttributeError, OSError):
        affinity = None
    if affinity:
        return len(affinity)
    return os.cpu_count() or 1


def _gate_enabled() -> bool:
    raw = os.environ.get(GATE_ENV)
    if raw is None:
        return True
    return raw.strip().lower() not in ("0", "off", "false", "no")


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker count: argument > ``REPRO_WORKERS`` > 1."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV)
        if raw is None or not raw.strip():
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    workers = int(workers)
    if workers < 1:
        raise ConfigurationError(
            f"workers must be a positive integer, got {workers}")
    return workers


class ParallelExecutor:
    """Order-stable map over a fork process pool (serial at 1 worker).

    Parameters
    ----------
    workers:
        Number of worker processes; ``None`` reads ``REPRO_WORKERS``
        and defaults to 1.  ``workers=1`` runs inline with zero
        process overhead.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = resolve_workers(workers)

    def map_shared(self, fn: Callable[[Any, Any], Any],
                   items: Iterable[Any], state: Any,
                   version: int = 0) -> List[Any]:
        """Apply *fn* to every item over a pool that *persists* between
        calls, with *state* shipped to workers once, at fork time.

        Parameters
        ----------
        fn:
            Called as ``fn(state, item)``.  Must be picklable (a
            module-level function): the pool may outlive this call, so
            the task payload travels by pickle; only *state* rides the
            fork.
        items:
            Task items, also pickled per call.  Results return in
            submission order, exceptions propagate.
        state:
            The heavyweight shared object (e.g. a fitted linker).  The
            pool is keyed on ``(id(state), version, workers)``; a call
            with the same key reuses the live workers without forking
            (``parallel_pool_reuse_total``), any other key retires the
            old pool first — a forked worker's memory image is frozen
            at birth, so a mutated or different state *must* re-fork.
        version:
            Caller-maintained state version; bump it after mutating
            *state* (refit, incremental growth) to invalidate the pool.
        """
        global _POOL, _POOL_KEY, _SHARED
        items = list(items)
        _WORKERS_GAUGE.set(self.workers)
        _TASKS.inc(len(items))
        if self.workers <= 1 or len(items) <= 1:
            return [fn(state, item) for item in items]
        cores = available_cores()
        if _gate_enabled() and self.workers > cores:
            # More workers than cores means the pool pays fork + IPC
            # overhead for zero extra parallelism (the measured 0.96x
            # on a single core) — run serial, identically, for free.
            _GATED.inc()
            log.info("parallel.gated_serial", workers=self.workers,
                     cores=cores, n_items=len(items))
            return [fn(state, item) for item in items]
        if _IN_WORKER:
            # Nested use from inside a worker: stay serial.
            log.debug("parallel.nested_serial", n_items=len(items))
            return [fn(state, item) for item in items]
        if "fork" not in multiprocessing.get_all_start_methods():
            log.warning("parallel.no_fork", n_items=len(items),
                        workers=self.workers)
            return [fn(state, item) for item in items]
        key = (id(state), int(version), self.workers)
        if _POOL is not None and _POOL_KEY == key:
            _POOL_REUSE.inc()
            pool = _POOL
        else:
            shutdown_pools()
            _SHARED = state
            context = multiprocessing.get_context("fork")
            _POOLS.inc()
            fork_start = time.perf_counter()
            pool = ProcessPoolExecutor(max_workers=self.workers,
                                       mp_context=context,
                                       initializer=_mark_worker)
            try:
                pool.submit(_probe).result()
            except Exception:
                pool.shutdown(wait=False, cancel_futures=True)
                _SHARED = None
                raise
            _FORK_MS.inc((time.perf_counter() - fork_start) * 1000.0)
            _POOL, _POOL_KEY = pool, key
            log.debug("parallel.pool_forked", workers=self.workers,
                      version=int(version))
        chunksize = max(1, len(items) // (self.workers * 4))
        try:
            outcomes = list(pool.map(_run_shared,
                                     [(fn, item) for item in items],
                                     chunksize=chunksize))
        except Exception:
            # A broken pool (killed worker, unpicklable payload) must
            # not poison the *next* call with dead processes.
            shutdown_pools()
            raise
        return _merge_outcomes(outcomes)


def _merge_outcomes(outcomes: Sequence[Tuple[Any, dict, List[dict]]],
                    ) -> List[Any]:
    """Fold worker results, metric deltas and spans into the parent."""
    merge_start = time.perf_counter()
    registry = get_registry()
    tracer = get_tracer()
    results: List[Any] = []
    for result, snapshot, span_dicts in outcomes:
        # Gauges are instantaneous values of a dead worker; merging
        # them would clobber live parent values (last-write-wins).
        registry.merge({name: data for name, data in snapshot.items()
                        if data.get("type") != "gauge"})
        if tracer.enabled:
            for span_dict in span_dicts:
                # Worker spans keep their own pid/tid, so the
                # Chrome-trace export renders one lane per worker.
                tracer.attach(Span.from_dict(span_dict))
        results.append(result)
    _MERGE_MS.inc((time.perf_counter() - merge_start) * 1000.0)
    return results
