"""Cosine similarity over sparse feature matrices (eq. 2 of the paper).

Feature vectors leave :class:`~repro.core.features.FeatureExtractor`
L2-normalized, so cosine similarity is a plain sparse dot product; the
helpers here keep that invariant explicit and provide the ranking
primitives k-attribution builds on.

A call with few queries never transposes the corpus: it densifies the
queries into a ``(n_features, n_queries)`` slab and multiplies the CSR
corpus by it, so the one pass reads the corpus in its stored layout.
Larger calls take scipy's sparse ``queries @ corpus.T``, whose corpus
transpose they amortise.  Both accumulate every output cell over the
same nonzero products in the same ascending-feature order; the slab
only adds exact ``+0.0`` products, which leave a sum of non-negative
features unchanged.  Which kernel runs therefore never changes a bit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import sparse

from repro.core.tfidf import l2_normalize_rows

#: Most queries the slab kernel takes.  A slab pass costs one product
#: per stored corpus entry per query, where the sparse product pays a
#: corpus transpose per call and then about a quarter as many products
#: (the share that are nonzero in the pipeline's feature spaces); the
#: transpose is repaid at about this many queries.  Either kernel gives
#: the same bits, so this is a constant, not a setting.
QUERY_ROWS = 32


def _canonical(matrix: sparse.spmatrix) -> sparse.csr_matrix:
    """*matrix* as float64 CSR with sorted, unique column indices.

    A matrix already in that form comes back as is, so scipy caches
    the O(nnz) format check on it and a long-lived corpus pays for it
    once.  Any other is sorted on a copy: the caller's arrays are
    never touched.
    """
    if not (sparse.isspmatrix_csr(matrix) and matrix.dtype == np.float64):
        matrix = sparse.csr_matrix(matrix, dtype=np.float64)
    if not matrix.has_canonical_format:
        matrix = matrix.copy()
        matrix.sum_duplicates()
    return matrix


def cosine_similarity(queries: sparse.spmatrix,
                      corpus: sparse.spmatrix,
                      assume_normalized: bool = True) -> np.ndarray:
    """Pairwise cosine similarities, ``queries x corpus``.

    Parameters
    ----------
    queries / corpus:
        Sparse matrices with one row per document.
    assume_normalized:
        Skip re-normalization when rows are already unit-length (the
        pipeline's default).  Set to ``False`` for raw count matrices.

    Returns
    -------
    numpy.ndarray
        Dense ``(n_queries, n_corpus)`` similarity matrix in [0, 1]
        (all pipeline features are non-negative).
    """
    q = _canonical(queries)
    c = _canonical(corpus)
    if q.shape[1] != c.shape[1]:
        raise ValueError(
            f"dimension mismatch: {q.shape[1]} vs {c.shape[1]}")
    if not assume_normalized:
        q = l2_normalize_rows(q)
        c = l2_normalize_rows(c)
    # The slab must also be no larger than the transposed copy of the
    # corpus the sparse product builds (an int32 index and a float64
    # value per stored entry), so neither kernel needs more memory.
    n_queries, n_features = q.shape
    if (n_queries <= QUERY_ROWS
            and 8 * n_features * n_queries <= 12 * c.nnz):
        return _slab_product(q, c)
    return (q @ c.T).toarray()


def _slab_product(q: sparse.csr_matrix,
                  c: sparse.csr_matrix) -> np.ndarray:
    """``(q @ c.T).toarray()`` for canonical inputs, without a transpose.

    ``csr_matvecs`` walks each corpus row in stored (ascending) order
    and adds its products into that row's outputs, exactly the order
    in which the sparse product sums a cell.
    """
    slab = np.zeros((q.shape[1], q.shape[0]))
    columns = np.repeat(np.arange(q.shape[0]), np.diff(q.indptr))
    slab[q.indices, columns] = q.data
    return np.ascontiguousarray((c @ slab).T)


def cosine_pair(vector_a: sparse.spmatrix,
                vector_b: sparse.spmatrix) -> float:
    """Cosine similarity of two single-row sparse vectors."""
    return float(cosine_similarity(vector_a, vector_b)[0, 0])


def top_k(scores: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row top-*k* candidates of a score matrix.

    Returns ``(indices, values)``, both of shape ``(n_rows, k)``, with
    candidates sorted by descending score within each row.  ``k`` is
    clamped to the number of columns.

    Ties are broken by ascending column index (stable sort), making
    the selection fully deterministic — the invariant the blocked
    stage-1 fold (:func:`repro.perf.blocked.blocked_top_k`) relies on
    to be exactly equivalent to the one-shot computation.

    Only the columns scoring at least each row's *k*-th largest value
    are sorted; the result equals the first *k* columns of a full
    stable argsort of ``-scores`` (NaN last), ties included.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n_rows, n_cols = scores.shape
    k = min(k, n_cols)
    if k == 0:
        order = np.empty((n_rows, 0), dtype=np.intp)
    else:
        kth = -np.partition(-scores, k - 1, axis=1)[:, k - 1:k]
        # A NaN k-th value keeps the whole row, which then sorts as
        # the full argsort would.
        rows, cols = np.nonzero(~(scores < kth))
        # nonzero lists each row's columns in ascending order, so a
        # stable sort by (row, -score) orders them by (-score, index).
        picked = cols[np.lexsort((-scores[rows, cols], rows))]
        starts = np.searchsorted(rows, np.arange(n_rows))
        order = picked[starts[:, None] + np.arange(k)]
    values = np.take_along_axis(scores, order, axis=1)
    return order, values


def rank_of(scores_row: np.ndarray, target_index: int) -> int:
    """1-based rank of *target_index* in a descending ordering of scores.

    Used by the accuracy@k evaluations (Table III, Fig. 4): the match
    counts as correct at *k* when its rank is <= k.  Ties are resolved
    pessimistically (equal scores ahead of the target count against it).
    """
    target = scores_row[target_index]
    better = int(np.sum(scores_row > target))
    ties_before = int(np.sum(
        (scores_row == target)[:target_index]))
    return better + ties_before + 1
