"""Tests for the RAM-bounded batched pipeline (repro.core.batch)."""

import pytest

from repro.core.batch import BatchedLinker
from repro.core.linker import AliasLinker
from repro.errors import ConfigurationError


class TestConstruction:
    def test_batch_size_floor(self):
        with pytest.raises(ConfigurationError):
            BatchedLinker(batch_size=1)

    def test_k_must_be_below_batch_size(self):
        with pytest.raises(ConfigurationError):
            BatchedLinker(batch_size=10, k=10)

    @pytest.mark.parametrize("k", [0, -3])
    def test_non_positive_k_rejected_with_value(self, k):
        with pytest.raises(ConfigurationError) as excinfo:
            BatchedLinker(batch_size=10, k=k)
        assert str(k) in str(excinfo.value)

    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_non_positive_batch_size_rejected_with_value(self,
                                                         batch_size):
        with pytest.raises(ConfigurationError) as excinfo:
            BatchedLinker(batch_size=batch_size)
        assert str(batch_size) in str(excinfo.value)

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            BatchedLinker(threshold=-0.1)

    @pytest.mark.parametrize("block_size", [0, -4])
    def test_non_positive_block_size_rejected_at_construction(
            self, block_size):
        with pytest.raises(ConfigurationError) as excinfo:
            BatchedLinker(batch_size=20, block_size=block_size)
        assert "block_size" in str(excinfo.value)

    def test_block_size_resolved_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLOCK_SIZE", "33")
        linker = BatchedLinker(batch_size=20)
        monkeypatch.setenv("REPRO_BLOCK_SIZE", "0")
        assert linker.block_size == 33

    def test_link_before_fit(self, reddit_alter_egos):
        with pytest.raises(ConfigurationError):
            BatchedLinker().link(reddit_alter_egos.alter_egos[:1])

    def test_fit_empty(self):
        with pytest.raises(ConfigurationError):
            BatchedLinker().fit([])


class TestBatchedAgreement:
    def test_batched_matches_close_to_unbatched(self, reddit_alter_egos):
        """Section IV-J's claim: batching barely changes the result."""
        unknowns = reddit_alter_egos.alter_egos[:12]
        unbatched = AliasLinker(threshold=0.0)
        unbatched.fit(reddit_alter_egos.originals)
        plain = unbatched.link(unknowns)

        batched = BatchedLinker(batch_size=20, k=5, threshold=0.0)
        batched.fit(reddit_alter_egos.originals)
        chunked = batched.link(unknowns)

        plain_truth_hits = sum(
            reddit_alter_egos.truth.get(m.unknown_id) == m.candidate_id
            for m in plain.matches)
        chunked_truth_hits = sum(
            reddit_alter_egos.truth.get(m.unknown_id) == m.candidate_id
            for m in chunked.matches)
        assert abs(plain_truth_hits - chunked_truth_hits) <= 3

    def test_one_match_per_unknown(self, reddit_alter_egos):
        unknowns = reddit_alter_egos.alter_egos[:4]
        batched = BatchedLinker(batch_size=15, k=5, threshold=0.0)
        batched.fit(reddit_alter_egos.originals)
        result = batched.link(unknowns)
        assert len(result.matches) == 4
        assert {m.unknown_id for m in result.matches} == \
            {d.doc_id for d in unknowns}

    def test_small_corpus_single_batch(self, reddit_alter_egos):
        known = reddit_alter_egos.originals[:8]
        batched = BatchedLinker(batch_size=50, k=5, threshold=0.0)
        batched.fit(known)
        result = batched.link(reddit_alter_egos.alter_egos[:2])
        assert len(result.matches) == 2
