"""Bit-identity of the stage-1 kernels against frozen references.

``cosine_similarity`` multiplies the corpus by a dense slab of the
queries when there are at most ``QUERY_ROWS`` of them and the slab is
no larger than the corpus transpose, and takes scipy's sparse product
``(queries @ corpus.T).toarray()`` otherwise.  Both kernels must give
that product's bits on canonical, non-negative inputs, so which one
runs never shows.  ``top_k`` partitions before it
sorts; it must equal the first *k* columns of a full stable argsort,
ties included, also inside the blocked fold.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core import similarity
from repro.core.similarity import cosine_similarity, top_k
from repro.core.tfidf import l2_normalize_rows
from repro.perf import blocked
from repro.perf.blocked import blocked_top_k

SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _reference_cosine(queries, corpus, assume_normalized=True):
    """The kernel before slabs: scipy's sparse product, densified."""
    q = sparse.csr_matrix(queries, dtype=np.float64)
    c = sparse.csr_matrix(corpus, dtype=np.float64)
    if not assume_normalized:
        q = l2_normalize_rows(q)
        c = l2_normalize_rows(c)
    return (q @ c.T).toarray()


def _reference_top_k(scores, k):
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(scores, order, axis=1)


def _random_csr(rng, rows, cols):
    """Canonical non-negative CSR with empty rows and zero columns.

    Values span six decades, so a sum taken in another order shows up
    in the last bits.
    """
    values = rng.random((rows, cols)) * 10.0 ** rng.integers(-3, 3,
                                                              (rows, cols))
    values[rng.random((rows, cols)) < rng.uniform(0.2, 0.9)] = 0.0
    if rows:
        values[rng.random(rows) < 0.2] = 0.0
    values[:, rng.random(cols) < 0.2] = 0.0
    return sparse.csr_matrix(values)


def _same_bits(got, expected):
    assert got.shape == expected.shape
    assert got.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.int64),
                                  expected.view(np.int64))


def _arrays(matrix):
    return (matrix.data.copy(), matrix.indices.copy(),
            matrix.indptr.copy())


class TestCosineKernel:
    @settings(max_examples=60, deadline=None)
    @given(SEEDS, st.sampled_from([0, 1, 2, 31, 32, 33, 65]),
           st.integers(min_value=0, max_value=40),
           st.integers(min_value=1, max_value=60),
           st.booleans())
    def test_matches_sparse_product_bit_for_bit(self, seed, n_queries,
                                                n_corpus, n_features,
                                                assume_normalized):
        rng = np.random.default_rng(seed)
        queries = _random_csr(rng, n_queries, n_features)
        corpus = _random_csr(rng, n_corpus, n_features)
        before = _arrays(queries), _arrays(corpus)
        got = cosine_similarity(queries, corpus, assume_normalized)
        _same_bits(got, _reference_cosine(queries, corpus,
                                          assume_normalized))
        for matrix, arrays in zip((queries, corpus), before):
            for now, then in zip(_arrays(matrix), arrays):
                np.testing.assert_array_equal(now, then)

    @settings(max_examples=60, deadline=None)
    @given(SEEDS, st.sampled_from([0, 1, 2, 31, 32, 33, 65]),
           st.integers(min_value=0, max_value=40),
           st.integers(min_value=1, max_value=60))
    def test_slab_kernel_matches_sparse_product(self, seed, n_queries,
                                                n_corpus, n_features):
        rng = np.random.default_rng(seed)
        queries = _random_csr(rng, n_queries, n_features)
        corpus = _random_csr(rng, n_corpus, n_features)
        _same_bits(similarity._slab_product(queries, corpus),
                   _reference_cosine(queries, corpus))

    @settings(max_examples=40, deadline=None)
    @given(SEEDS, st.sampled_from([0, 1, 3, 7, 1000]),
           st.integers(min_value=0, max_value=20))
    def test_kernel_choice_never_changes_bits(self, seed, query_rows,
                                              n_queries):
        rng = np.random.default_rng(seed)
        queries = _random_csr(rng, n_queries, 30)
        corpus = _random_csr(rng, 25, 30)
        with mock.patch.object(similarity, "QUERY_ROWS", query_rows):
            got = cosine_similarity(queries, corpus)
        _same_bits(got, _reference_cosine(queries, corpus))

    def test_slab_serves_few_queries_on_a_dense_corpus(self):
        rng = np.random.default_rng(3)
        corpus = sparse.csr_matrix(rng.random((200, 50)))
        queries = sparse.csr_matrix(rng.random((32, 50)))
        with mock.patch.object(similarity, "_slab_product",
                               wraps=similarity._slab_product) as slab:
            cosine_similarity(queries, corpus)
            assert slab.call_count == 1
            cosine_similarity(sparse.vstack([queries] * 2), corpus)
            assert slab.call_count == 1

    def test_slab_never_outgrows_the_corpus_transpose(self):
        # 32 queries over 100,000 features would need a 25.6 MB slab;
        # the corpus transpose holds 12 bytes for each of 300 entries.
        corpus = sparse.random(3, 100_000, density=0.001, format="csr",
                               random_state=0)
        queries = sparse.random(32, 100_000, density=0.001, format="csr",
                                random_state=1)
        with mock.patch.object(similarity, "_slab_product",
                               side_effect=AssertionError("slab")):
            got = cosine_similarity(queries, corpus)
        _same_bits(got, _reference_cosine(queries, corpus))

    @settings(max_examples=30, deadline=None)
    @given(SEEDS)
    def test_unsorted_input_is_sorted_on_a_copy(self, seed):
        rng = np.random.default_rng(seed)
        canonical = _random_csr(rng, 6, 20)
        shuffled = canonical.copy()
        for row in range(shuffled.shape[0]):
            lo, hi = shuffled.indptr[row], shuffled.indptr[row + 1]
            perm = lo + rng.permutation(hi - lo)
            shuffled.indices[lo:hi] = shuffled.indices[perm]
            shuffled.data[lo:hi] = shuffled.data[perm]
        shuffled.has_sorted_indices = False
        before = _arrays(shuffled)
        got = cosine_similarity(shuffled, shuffled)
        _same_bits(got, _reference_cosine(canonical, canonical))
        for now, then in zip(_arrays(shuffled), before):
            np.testing.assert_array_equal(now, then)


class TestTopKKernel:
    @settings(max_examples=100, deadline=None)
    @given(SEEDS, st.integers(min_value=0, max_value=6),
           st.integers(min_value=1, max_value=30),
           st.integers(min_value=1, max_value=35), st.booleans())
    def test_matches_stable_argsort_under_ties(self, seed, n_rows,
                                               n_cols, k, with_nan):
        rng = np.random.default_rng(seed)
        levels = [0.0, -0.0, 0.25, 0.5, 1.0] + ([np.nan] if with_nan
                                                else [])
        scores = rng.choice(levels, size=(n_rows, n_cols))
        for kk in (1, k, n_cols, n_cols + 3):
            got_idx, got_val = top_k(scores, kk)
            exp_idx, exp_val = _reference_top_k(scores, min(kk, n_cols))
            np.testing.assert_array_equal(got_idx, exp_idx)
            np.testing.assert_array_equal(got_val, exp_val)

    @settings(max_examples=40, deadline=None)
    @given(SEEDS, st.sampled_from([1, 2, 3, 5]),
           st.integers(min_value=1, max_value=12))
    def test_blocked_fold_keeps_tie_order(self, seed, block_rows, k):
        rng = np.random.default_rng(seed)
        base = l2_normalize_rows(_random_csr(rng, 4, 12))
        # Repeated corpus rows score exactly alike, so ties straddle
        # every block boundary.
        corpus = sparse.vstack([base] * 4, format="csr")
        queries = l2_normalize_rows(_random_csr(rng, 5, 12))
        exp_idx, exp_val = _reference_top_k(
            _reference_cosine(queries, corpus), min(k, 16))
        with mock.patch.object(blocked, "BLOCK_ROWS", block_rows):
            got_idx, got_val = blocked_top_k(queries, corpus, k)
        np.testing.assert_array_equal(got_idx, exp_idx)
        np.testing.assert_array_equal(got_val, exp_val)
