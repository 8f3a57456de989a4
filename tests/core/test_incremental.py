"""Tests for the incremental linker (repro.core.incremental)."""

import pytest

from repro.core.incremental import IncrementalLinker
from repro.core.linker import AliasLinker
from repro.errors import ConfigurationError, NotFittedError


@pytest.fixture(scope="module")
def split_known(reddit_alter_egos):
    """Initial corpus + a batch to add later."""
    originals = reddit_alter_egos.originals
    cut = max(4, len(originals) * 3 // 4)
    return originals[:cut], originals[cut:]


class TestLifecycle:
    def test_invalid_refit_after(self):
        with pytest.raises(ConfigurationError):
            IncrementalLinker(refit_after=0)

    @pytest.mark.parametrize("k", [0, -2])
    def test_non_positive_k_rejected_eagerly(self, k):
        with pytest.raises(ConfigurationError) as excinfo:
            IncrementalLinker(k=k)
        assert str(k) in str(excinfo.value)

    def test_invalid_threshold_rejected_eagerly(self):
        with pytest.raises(ConfigurationError):
            IncrementalLinker(threshold=2.0)

    def test_link_before_fit(self, reddit_alter_egos):
        with pytest.raises(NotFittedError):
            IncrementalLinker().link(reddit_alter_egos.alter_egos[:1])

    def test_add_before_fit(self, reddit_alter_egos):
        with pytest.raises(NotFittedError):
            IncrementalLinker().add_known(
                reddit_alter_egos.originals[:1])

    def test_fit_empty(self):
        with pytest.raises(ConfigurationError):
            IncrementalLinker().fit([])

    def test_duplicate_addition_rejected(self, split_known):
        initial, extra = split_known
        linker = IncrementalLinker().fit(initial)
        with pytest.raises(ConfigurationError):
            linker.add_known([initial[0]])

    def test_staleness_counter(self, split_known):
        initial, extra = split_known
        if not extra:
            pytest.skip("fixture too small")
        linker = IncrementalLinker(refit_after=len(extra)).fit(initial)
        assert not linker.stale
        linker.add_known(extra)
        assert linker.added_since_fit == len(extra)
        assert linker.stale
        linker.refit()
        assert not linker.stale
        assert linker.n_known == len(initial) + len(extra)


class TestConsistency:
    def test_added_aliases_are_findable(self, reddit_alter_egos,
                                        split_known):
        """An alter ego whose original arrives incrementally must
        still be matched to it."""
        initial, extra = split_known
        if not extra:
            pytest.skip("fixture too small")
        extra_ids = {d.doc_id for d in extra}
        # alter egos whose true author is in the extra batch
        queries = [
            a for a in reddit_alter_egos.alter_egos
            if reddit_alter_egos.truth[a.doc_id] in extra_ids
        ]
        if not queries:
            pytest.skip("no queries target the extra batch")
        linker = IncrementalLinker(threshold=0.0).fit(initial)
        linker.add_known(extra)
        result = linker.link(queries)
        hits = sum(
            reddit_alter_egos.truth[m.unknown_id] == m.candidate_id
            for m in result.matches)
        assert hits >= len(queries) // 2

    def test_close_to_full_refit(self, reddit_alter_egos,
                                 split_known):
        """The frozen-space approximation must track a full refit."""
        initial, extra = split_known
        if not extra:
            pytest.skip("fixture too small")
        queries = reddit_alter_egos.alter_egos[:10]

        incremental = IncrementalLinker(threshold=0.0).fit(initial)
        incremental.add_known(extra)
        inc_matches = incremental.link(queries).matches

        full = AliasLinker(threshold=0.0)
        full.fit(initial + extra)
        full_matches = full.link(queries).matches

        agree = sum(
            a.candidate_id == b.candidate_id
            for a, b in zip(inc_matches, full_matches))
        assert agree >= len(queries) - 2

    def test_refit_matches_full_fit_exactly(self, reddit_alter_egos,
                                            split_known):
        initial, extra = split_known
        if not extra:
            pytest.skip("fixture too small")
        queries = reddit_alter_egos.alter_egos[:5]
        incremental = IncrementalLinker(threshold=0.0).fit(initial)
        incremental.add_known(extra)
        incremental.refit()
        inc_matches = incremental.link(queries).matches
        full = AliasLinker(threshold=0.0)
        full.fit(initial + extra)
        full_matches = full.link(queries).matches
        assert [m.candidate_id for m in inc_matches] == \
            [m.candidate_id for m in full_matches]
        for a, b in zip(inc_matches, full_matches):
            assert a.score == pytest.approx(b.score)


class TestIncrementalAppend:
    """add_known appends rows to the known matrix; prior rows keep
    their exact values and stage 1 sees the grown corpus."""

    def test_add_known_appends_rows(self, split_known):
        initial, extra = split_known
        if not extra:
            pytest.skip("fixture too small")
        linker = IncrementalLinker(threshold=0.0).fit(initial)
        reducer = linker._linker.reducer
        before = reducer._known_matrix.copy()
        linker.add_known(extra)
        grown = reducer._known_matrix
        assert grown.shape[0] == len(initial) + len(extra)
        assert (grown[:before.shape[0]] != before).nnz == 0

    @pytest.mark.parametrize("block_size", [3, 10 ** 6])
    def test_add_known_matches_fresh_reduce(self, reddit_alter_egos,
                                            split_known, block_size):
        initial, extra = split_known
        if not extra:
            pytest.skip("fixture too small")
        unknowns = reddit_alter_egos.alter_egos[:8]
        linker = IncrementalLinker(threshold=0.0).fit(initial)
        linker.add_known(extra)
        reduced = linker._linker.reducer.reduce(unknowns)

        fresh = AliasLinker(threshold=0.0, block_size=block_size)
        fresh.reducer.extractor = linker._linker.reducer.extractor
        fresh.reducer._known = linker._linker.reducer._known
        fresh.reducer._known_matrix = \
            linker._linker.reducer._known_matrix
        assert reduced == fresh.reducer.reduce(unknowns)

    def test_block_size_threaded_through(self, split_known):
        initial, _ = split_known
        linker = IncrementalLinker(block_size=7)
        linker.fit(initial)
        assert linker._linker.reducer.block_size == 7
