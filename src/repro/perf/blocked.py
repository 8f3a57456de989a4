"""Memory-bounded stage-1 scoring: top-k folded per block.

Ranking ``n_unknowns`` queries against ``n_known`` aliases produces a
dense ``(n_unknowns, n_known)`` similarity matrix — 160 MB of float64
at 200 x 100,000, and growing linearly with the known corpus.  The
reduction stage only ever needs the best *k* per row, so the matrix
never has to exist whole: score the known corpus in column blocks and
fold a running top-k after each block.  Peak memory becomes
``O(n_unknowns * (k + BLOCK_ROWS))`` for the scores, regardless of
corpus size, plus what one similarity call on a block needs: a
transposed copy of the block, or a query slab that is never larger
(:func:`repro.core.similarity.cosine_similarity`).

The fold is **exactly** equivalent to the unblocked computation,
including tie handling: :func:`repro.core.similarity.top_k` orders
ties by ascending corpus index, the running best always holds smaller
indices than the incoming block, and a stable sort over the
concatenated candidates therefore preserves the same total order
``(-score, index)`` the one-shot path uses.  Blocked and unblocked
candidate sets are identical element-for-element (property-tested in
``tests/perf/test_blocked.py``).

The block is the fixed :data:`BLOCK_ROWS`: it bounds memory without
changing a single output bit, so it is not a setting.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import sparse

from repro.core.similarity import cosine_similarity, top_k
from repro.errors import ConfigurationError
from repro.obs.metrics import counter

__all__ = ["BLOCK_ROWS", "blocked_top_k"]

#: Known-corpus rows scored per block.  4096 known aliases x 200
#: unknowns of float64 is ~6.5 MB per block — small enough to sit in
#: cache-friendly territory, large enough that the sparse matmul
#: dominates the fold bookkeeping.
BLOCK_ROWS = 4096

#: Similarity blocks scored across all reductions.
_BLOCKS = counter("stage1_blocks_total")


def blocked_top_k(queries: sparse.spmatrix, corpus: sparse.spmatrix,
                  k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-query top-*k* corpus rows by cosine, scored in blocks.

    Parameters
    ----------
    queries / corpus:
        L2-normalized sparse matrices, one row per document.
    k:
        Candidates to keep per query (clamped to the corpus size).

    Returns
    -------
    (indices, values):
        Both of shape ``(n_queries, min(k, n_corpus))``, candidates
        sorted by descending score (ties by ascending index) — exactly
        the output of ``top_k(cosine_similarity(queries, corpus), k)``
        without ever materializing the full similarity matrix.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    n_corpus = corpus.shape[0]
    if n_corpus <= BLOCK_ROWS:
        _BLOCKS.inc()
        return top_k(cosine_similarity(queries, corpus), k)
    best_indices: Optional[np.ndarray] = None
    best_values: Optional[np.ndarray] = None
    for start in range(0, n_corpus, BLOCK_ROWS):
        _BLOCKS.inc()
        scores = cosine_similarity(queries,
                                   corpus[start:start + BLOCK_ROWS])
        indices, values = top_k(scores, min(k, scores.shape[1]))
        indices = indices.astype(np.int64) + start
        if best_indices is None:
            best_indices, best_values = indices, values
            continue
        # Fold: previous winners carry strictly smaller corpus indices
        # than the incoming block, so the stable (-score, index) sort
        # inside top_k keeps the global tie order intact.
        merged_values = np.concatenate([best_values, values], axis=1)
        merged_indices = np.concatenate([best_indices, indices], axis=1)
        keep, best_values = top_k(merged_values,
                                  min(k, merged_values.shape[1]))
        best_indices = np.take_along_axis(merged_indices, keep, axis=1)
    assert best_indices is not None and best_values is not None
    return best_indices, best_values
