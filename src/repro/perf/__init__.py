"""Performance subsystem: profile caching, parallel restage and
blocked stage-1 scoring.

Three levers that together let the two-stage linker scale to corpus
sizes the paper never touched:

* :class:`~repro.perf.cache.ProfileCache` — every document's raw
  n-gram counts, frequency features and activity row are computed
  exactly once and reused by both stages and every restage;
* :class:`~repro.perf.parallel.ParallelExecutor` — per-unknown stage-2
  work fans across cores over a fork pool (per-call, or persistent
  across ``link()`` calls via ``map_shared``), with the cache shared
  read-only and deterministic, order-stable output;
* :func:`~repro.perf.blocked.blocked_top_k` — stage-1 similarity is
  scored in column blocks with the top-k folded per block, so the
  dense ``(n_unknowns, n_known)`` matrix never materializes whole.

Tuning knobs: ``REPRO_WORKERS`` (or ``link --workers`` / the linkers'
``workers=`` parameter) and ``REPRO_BLOCK_SIZE`` (or ``block_size=``).
See ``docs/performance.md``.
"""

from repro.perf.blocked import (
    BLOCK_SIZE_ENV,
    DEFAULT_BLOCK_SIZE,
    blocked_top_k,
    resolve_block_size,
)
from repro.perf.cache import ProfileCache
from repro.perf.parallel import (
    WORKERS_ENV,
    ParallelExecutor,
    resolve_workers,
    shutdown_pools,
)

__all__ = [
    "BLOCK_SIZE_ENV",
    "DEFAULT_BLOCK_SIZE",
    "ParallelExecutor",
    "ProfileCache",
    "WORKERS_ENV",
    "blocked_top_k",
    "resolve_block_size",
    "resolve_workers",
    "shutdown_pools",
]
