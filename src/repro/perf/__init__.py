"""Performance subsystem: profile caching and blocked stage-1 scoring.

Two levers that together let the two-stage linker scale to corpus
sizes the paper never touched:

* :class:`~repro.perf.cache.ProfileCache` — every document's raw
  n-gram counts, frequency features and activity row are computed
  exactly once and reused by both stages and every restage;
* :func:`~repro.perf.blocked.blocked_top_k` — stage-1 similarity is
  scored in column blocks with the top-k folded per block, so the
  dense ``(n_unknowns, n_known)`` matrix never materializes whole.

Tuning knob: ``REPRO_BLOCK_SIZE`` (or ``block_size=``).  See
``docs/performance.md``.
"""

from repro.perf.blocked import (
    BLOCK_SIZE_ENV,
    DEFAULT_BLOCK_SIZE,
    blocked_top_k,
    resolve_block_size,
)
from repro.perf.cache import ProfileCache
from repro.perf.parallel import ParallelExecutor

__all__ = [
    "BLOCK_SIZE_ENV",
    "DEFAULT_BLOCK_SIZE",
    "ParallelExecutor",
    "ProfileCache",
    "blocked_top_k",
    "resolve_block_size",
]
