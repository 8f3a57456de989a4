"""Tests for search-space reduction (repro.core.kattribution)."""

import pytest

from repro.config import FeatureBudget
from repro.core.kattribution import KAttributor
from repro.errors import ConfigurationError, NotFittedError


@pytest.fixture(scope="module")
def fitted(reddit_alter_egos):
    attributor = KAttributor(k=10)
    attributor.fit(reddit_alter_egos.originals)
    return attributor


class TestConstruction:
    def test_invalid_k(self):
        with pytest.raises(ConfigurationError):
            KAttributor(k=0)

    def test_reduce_before_fit_raises(self, reddit_alter_egos):
        with pytest.raises(NotFittedError):
            KAttributor().reduce(reddit_alter_egos.alter_egos[:1])

    def test_fit_empty_raises(self):
        with pytest.raises(ConfigurationError):
            KAttributor().fit([])


class TestReduce(object):
    def test_candidate_sets_have_k_entries(self, fitted,
                                           reddit_alter_egos):
        results = fitted.reduce(reddit_alter_egos.alter_egos[:5])
        for candidates in results:
            assert len(candidates.documents) == 10
            assert len(candidates.scores) == 10

    def test_scores_descending(self, fitted, reddit_alter_egos):
        results = fitted.reduce(reddit_alter_egos.alter_egos[:5])
        for candidates in results:
            scores = list(candidates.scores)
            assert scores == sorted(scores, reverse=True)

    def test_true_author_usually_captured(self, fitted,
                                          reddit_alter_egos):
        """The point of 10-attribution: the real author is in the set."""
        results = fitted.reduce(reddit_alter_egos.alter_egos)
        hits = sum(
            candidates.contains(
                reddit_alter_egos.truth[candidates.unknown.doc_id])
            for candidates in results)
        assert hits / len(results) > 0.8

    def test_contains_helper(self, fitted, reddit_alter_egos):
        results = fitted.reduce(reddit_alter_egos.alter_egos[:1])
        present = results[0].documents[0].doc_id
        assert results[0].contains(present)
        assert not results[0].contains("f/nobody")


class TestAccuracyAtK:
    def test_accuracy_monotone_in_k(self, fitted, reddit_alter_egos):
        acc = fitted.accuracy_at_k(reddit_alter_egos.alter_egos,
                                   reddit_alter_egos.truth,
                                   ks=(1, 5, 10))
        assert acc[1] <= acc[5] <= acc[10]

    def test_unknowns_without_truth_skipped(self, fitted,
                                            reddit_alter_egos):
        acc = fitted.accuracy_at_k(reddit_alter_egos.alter_egos, {},
                                   ks=(1,))
        assert acc[1] == 0.0

    def test_activity_feature_matters_at_small_text(
            self, reddit_alter_egos):
        """Fig. 4's claim, on the small fixture: adding the daily
        activity profile must not collapse accuracy, and the two
        configurations must actually differ."""
        with_activity = KAttributor(k=10, use_activity=True)
        with_activity.fit(reddit_alter_egos.originals)
        acc_all = with_activity.accuracy_at_k(
            reddit_alter_egos.alter_egos, reddit_alter_egos.truth,
            ks=(10,))
        text_only = KAttributor(k=10, use_activity=False)
        text_only.fit(reddit_alter_egos.originals)
        acc_text = text_only.accuracy_at_k(
            reddit_alter_egos.alter_egos, reddit_alter_egos.truth,
            ks=(10,))
        assert acc_all[10] >= acc_text[10] - 0.05


class TestBlockSize:
    def test_block_size_validated(self):
        with pytest.raises(ConfigurationError):
            KAttributor(block_size=0)

    def test_block_size_resolved_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLOCK_SIZE", "17")
        attributor = KAttributor()
        monkeypatch.setenv("REPRO_BLOCK_SIZE", "3")
        assert attributor.block_size == 17

    def test_single_block_matches_tiny_blocks(self, reddit_alter_egos):
        n_known = len(reddit_alter_egos.originals)
        one_shot = KAttributor(k=10, block_size=n_known)
        one_shot.fit(reddit_alter_egos.originals)
        tiny = KAttributor(k=10, block_size=3)
        tiny.fit(reddit_alter_egos.originals)
        assert one_shot.reduce(reddit_alter_egos.alter_egos) \
            == tiny.reduce(reddit_alter_egos.alter_egos)
