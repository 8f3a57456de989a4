"""Tf-Idf weighting over sparse count matrices.

Section IV-A: after selecting the top-N n-grams by corpus frequency,
"we compute their weight with the Tf-Idf ... This measure gives more
importance to features that are frequently used by only one user and
less importance to popular features such as stop-words."

The smooth formulation is used (as in scikit-learn):

.. math::

    \\mathrm{idf}(t) = \\ln\\frac{1 + N}{1 + \\mathrm{df}(t)} + 1

so no selected feature ever receives a zero or negative weight, and
rows are L2-normalized so that dot products between rows *are* cosine
similarities.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse

from repro.errors import NotFittedError


class TfidfModel:
    """Idf statistics learned from a count matrix.

    Usage::

        model = TfidfModel().fit(counts)      # counts: CSR, docs x terms
        weighted = model.transform(counts)    # L2-normalized Tf-Idf
    """

    def __init__(self) -> None:
        self._idf: Optional[np.ndarray] = None

    @property
    def idf(self) -> np.ndarray:
        """The fitted idf vector (raises before :meth:`fit`)."""
        if self._idf is None:
            raise NotFittedError("TfidfModel.fit has not been called")
        return self._idf

    def fit(self, counts: sparse.spmatrix) -> "TfidfModel":
        """Learn idf weights from a documents-by-terms count matrix."""
        matrix = sparse.csr_matrix(counts)
        n_docs = matrix.shape[0]
        df = np.bincount(matrix.indices, minlength=matrix.shape[1])
        self._idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
        return self

    def transform(self, counts: sparse.spmatrix,
                  copy: bool = True) -> sparse.csr_matrix:
        """Apply Tf-Idf weighting and L2 row normalization.

        By default *counts* is copied first; a caller that owns a
        freshly built float64 CSR matrix passes ``copy=False`` to
        weight it in place (as :func:`l2_normalize_rows` does).
        """
        if self._idf is None:
            raise NotFittedError("TfidfModel.fit has not been called")
        matrix = sparse.csr_matrix(counts, dtype=np.float64, copy=copy)
        if matrix.shape[1] != self._idf.shape[0]:
            raise ValueError(
                f"matrix has {matrix.shape[1]} columns, model was fitted "
                f"on {self._idf.shape[0]}")
        matrix.data *= self._idf[matrix.indices]
        # The matrix is a private copy or owned by the caller: normalize
        # it in place.
        return l2_normalize_rows(matrix, copy=False)

    def fit_transform(self, counts: sparse.spmatrix) -> sparse.csr_matrix:
        """Convenience: :meth:`fit` then :meth:`transform`."""
        return self.fit(counts).transform(counts)


def l2_normalize_rows(matrix: sparse.spmatrix,
                      copy: bool = True) -> sparse.csr_matrix:
    """Scale every row of a CSR matrix to unit L2 norm (zero rows kept).

    The scaling happens directly on ``matrix.data`` — no ``diags``
    construction, no sparse matmul, no second copy of the matrix.  By
    default the input is copied first; callers that own a freshly
    built matrix pass ``copy=False`` to normalize it in place (the hot
    paths: every Tf-Idf transform and every block stack).
    """
    if not sparse.isspmatrix_csr(matrix) or matrix.dtype != np.float64:
        matrix = sparse.csr_matrix(matrix, dtype=np.float64)
    elif copy:
        matrix = matrix.copy()
    if matrix.nnz == 0:
        return matrix
    row_nnz = np.diff(matrix.indptr)
    squared = matrix.data * matrix.data
    row_sums = np.zeros(matrix.shape[0], dtype=np.float64)
    occupied = np.flatnonzero(row_nnz > 0)
    # reduceat over the starts of the occupied rows sums each row's
    # squared data exactly (empty rows contribute no segments).
    row_sums[occupied] = np.add.reduceat(
        squared, matrix.indptr[occupied].astype(np.int64))
    norms = np.sqrt(row_sums)
    scale = np.divide(1.0, norms, out=np.zeros_like(norms),
                      where=norms > 0)
    matrix.data *= np.repeat(scale, row_nnz)
    return matrix
