"""Performance subsystem: profile caching and blocked stage-1 scoring.

Two fixed policies that together let the two-stage linker scale to
corpus sizes the paper never touched:

* :class:`~repro.perf.cache.ProfileCache` — every document's raw
  n-gram counts, frequency features and activity row are computed
  exactly once and reused by both stages and every restage;
* :func:`~repro.perf.blocked.blocked_top_k` — stage-1 similarity is
  scored in column blocks of :data:`~repro.perf.blocked.BLOCK_ROWS`
  known aliases with the top-k folded per block, so the dense
  ``(n_unknowns, n_known)`` matrix never materializes whole.

Neither is a setting: both leave every output bit unchanged.  See
``docs/performance.md``.
"""

from repro.perf.blocked import BLOCK_ROWS, blocked_top_k
from repro.perf.cache import ProfileCache
from repro.perf.parallel import ParallelExecutor

__all__ = [
    "BLOCK_ROWS",
    "ParallelExecutor",
    "ProfileCache",
    "blocked_top_k",
]
