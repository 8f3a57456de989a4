"""Unit tests for blocked stage-1 scoring (repro.perf.blocked).

The block size is the module constant ``BLOCK_ROWS``; the fold cases
patch it to a few rows so small matrices span many blocks.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.core.similarity import cosine_similarity, top_k
from repro.core.tfidf import l2_normalize_rows
from repro.errors import ConfigurationError
from repro.perf import blocked
from repro.perf.blocked import blocked_top_k


def _random_matrix(rng, rows, cols, density=0.3):
    dense = rng.random((rows, cols)) * (rng.random((rows, cols)) < density)
    return l2_normalize_rows(sparse.csr_matrix(dense))


class TestEquivalence:
    @pytest.mark.parametrize("block", [1, 3, 7, 64, 1000])
    @pytest.mark.parametrize("k", [1, 5, 50])
    def test_matches_one_shot_exactly(self, block, k, monkeypatch):
        monkeypatch.setattr(blocked, "BLOCK_ROWS", block)
        rng = np.random.default_rng(block * 100 + k)
        queries = _random_matrix(rng, 9, 40)
        corpus = _random_matrix(rng, 37, 40)
        expected_idx, expected_val = top_k(
            cosine_similarity(queries, corpus), min(k, 37))
        got_idx, got_val = blocked_top_k(queries, corpus, k)
        np.testing.assert_array_equal(got_idx, expected_idx)
        np.testing.assert_array_equal(got_val, expected_val)

    def test_ties_across_block_boundary(self, monkeypatch):
        # Duplicate corpus rows produce exactly equal scores; the fold
        # must keep the same (smallest) indices as the one-shot path
        # even when the duplicates land in different blocks.
        rng = np.random.default_rng(11)
        base = _random_matrix(rng, 4, 16)
        corpus = sparse.vstack([base] * 5, format="csr")  # 20 rows
        queries = base
        for block in (1, 2, 3, 4, 7):
            monkeypatch.setattr(blocked, "BLOCK_ROWS", block)
            idx, val = blocked_top_k(queries, corpus, 8)
            exp_idx, exp_val = top_k(cosine_similarity(queries, corpus),
                                     8)
            np.testing.assert_array_equal(idx, exp_idx)
            np.testing.assert_array_equal(val, exp_val)

    def test_k_clamped_to_corpus(self, monkeypatch):
        monkeypatch.setattr(blocked, "BLOCK_ROWS", 2)
        rng = np.random.default_rng(5)
        queries = _random_matrix(rng, 2, 8)
        corpus = _random_matrix(rng, 3, 8)
        idx, val = blocked_top_k(queries, corpus, 10)
        assert idx.shape == val.shape == (2, 3)

    def test_invalid_k_rejected(self):
        rng = np.random.default_rng(5)
        matrix = _random_matrix(rng, 2, 8)
        with pytest.raises(ConfigurationError):
            blocked_top_k(matrix, matrix, 0)


class TestMetrics:
    def test_blocks_counted(self, monkeypatch):
        from repro.obs.metrics import get_registry

        rng = np.random.default_rng(2)
        queries = _random_matrix(rng, 3, 12)
        corpus = _random_matrix(rng, 10, 12)
        before = get_registry().snapshot().get(
            "stage1_blocks_total", {}).get("value", 0)
        monkeypatch.setattr(blocked, "BLOCK_ROWS", 4)
        blocked_top_k(queries, corpus, 2)
        after = get_registry().snapshot().get(
            "stage1_blocks_total", {}).get("value", 0)
        assert after == before + 3  # ceil(10 / 4)
