"""Bit-identity of linking output across every perf configuration.

The perf subsystem's contract is that caching and blocked scoring are
pure mechanics: ``link()`` output is **identical** — not approximately
equal — whether the cache is on or off, at any block size, across
repeated links and refits, and under checkpoint/resume.  Everything here
compares full ``LinkResult.to_dict()`` payloads for exact equality.
"""

import pytest

from repro.core.batch import BatchedLinker
from repro.core.linker import AliasLinker


def _run(dataset, **kwargs):
    linker = AliasLinker(threshold=0.4, **kwargs)
    linker.fit(dataset.originals)
    return linker.link(dataset.alter_egos)


@pytest.fixture(scope="module")
def baseline(reddit_alter_egos):
    """The reference run: serial, cached, default block size."""
    return _run(reddit_alter_egos).to_dict()


class TestAliasLinkerEquivalence:
    def test_cache_off_is_bit_identical(self, reddit_alter_egos,
                                        baseline):
        assert _run(reddit_alter_egos,
                    cache=False).to_dict() == baseline

    def test_tiny_blocks_are_bit_identical(self, reddit_alter_egos,
                                           baseline):
        assert _run(reddit_alter_egos,
                    block_size=3).to_dict() == baseline

    def test_everything_at_once_is_bit_identical(self,
                                                 reddit_alter_egos,
                                                 baseline):
        assert _run(reddit_alter_egos, cache=False,
                    block_size=5).to_dict() == baseline


class TestStage1Equivalence:
    """Every stage-1 block size produces the same bits end to end."""

    def test_single_block_is_bit_identical(self, reddit_alter_egos,
                                           baseline):
        # One block spanning the corpus is the one-shot top-k path.
        n_known = len(reddit_alter_egos.originals)
        assert _run(reddit_alter_egos,
                    block_size=n_known).to_dict() == baseline

    @pytest.mark.parametrize("block_size", [1, 2, 7])
    def test_block_sizes_are_bit_identical(self, reddit_alter_egos,
                                           baseline, block_size):
        assert _run(reddit_alter_egos,
                    block_size=block_size).to_dict() == baseline

    def test_link_scores_match_rescore(self, reddit_alter_egos):
        # link()'s block-diagonal restage scores every pair exactly as
        # the single-pair reference does.
        linker = AliasLinker(threshold=0.4)
        linker.fit(reddit_alter_egos.originals)
        result = linker.link(reddit_alter_egos.alter_egos)
        reduced = linker.reducer.reduce(reddit_alter_egos.alter_egos)
        assert len(result.candidate_scores) == len(reduced)
        for candidates in reduced:
            unknown = candidates.unknown
            assert result.candidate_scores[unknown.doc_id] == \
                linker.rescore(unknown, candidates.documents)


class TestRepeatedLinks:
    """A fitted linker links the same way on every call and refit."""

    def test_repeat_link_is_bit_identical(self, reddit_alter_egos,
                                          baseline):
        linker = AliasLinker(threshold=0.4)
        linker.fit(reddit_alter_egos.originals)
        first = linker.link(reddit_alter_egos.alter_egos)
        second = linker.link(reddit_alter_egos.alter_egos)
        assert first.to_dict() == baseline
        assert second.to_dict() == baseline

    def test_refit_links_like_a_fresh_fit(self, reddit_alter_egos):
        linker = AliasLinker(threshold=0.4)
        linker.fit(reddit_alter_egos.originals)
        linker.link(reddit_alter_egos.alter_egos)
        # Refitting on a smaller corpus must leave nothing of the old
        # one behind: the result equals a linker fitted only once.
        smaller = reddit_alter_egos.originals[:-1]
        linker.fit(smaller)
        fresh = AliasLinker(threshold=0.4).fit(smaller)
        assert linker.link(reddit_alter_egos.alter_egos).to_dict() == \
            fresh.link(reddit_alter_egos.alter_egos).to_dict()


class TestResumeEquivalence:
    def test_resumed_equals_uninterrupted(self, reddit_alter_egos,
                                          baseline, tmp_path):
        checkpoint = tmp_path / "link.ckpt"
        # Interrupted run: only the first few unknowns finish before
        # the "crash".
        partial = AliasLinker(threshold=0.4)
        partial.fit(reddit_alter_egos.originals)
        partial.link(reddit_alter_egos.alter_egos[:3],
                     checkpoint=checkpoint)
        resumed = AliasLinker(threshold=0.4)
        resumed.fit(reddit_alter_egos.originals)
        result = resumed.link(reddit_alter_egos.alter_egos,
                              checkpoint=checkpoint, resume=True)
        assert result.to_dict() == baseline

    def test_resume_cache_off_equals_baseline(self, reddit_alter_egos,
                                              baseline, tmp_path):
        checkpoint = tmp_path / "link.ckpt"
        first = AliasLinker(threshold=0.4, cache=False)
        first.fit(reddit_alter_egos.originals)
        first.link(reddit_alter_egos.alter_egos[:2],
                   checkpoint=checkpoint)
        second = AliasLinker(threshold=0.4)
        second.fit(reddit_alter_egos.originals)
        result = second.link(reddit_alter_egos.alter_egos,
                             checkpoint=checkpoint, resume=True)
        assert result.to_dict() == baseline


class TestBatchedEquivalence:
    @pytest.fixture(scope="class")
    def batched_baseline(self, reddit_alter_egos):
        linker = BatchedLinker(batch_size=12, threshold=0.4)
        linker.fit(reddit_alter_egos.originals)
        return linker.link(reddit_alter_egos.alter_egos).to_dict()

    def test_cache_off_is_bit_identical(self, reddit_alter_egos,
                                        batched_baseline):
        linker = BatchedLinker(batch_size=12, threshold=0.4,
                               cache=False)
        linker.fit(reddit_alter_egos.originals)
        result = linker.link(reddit_alter_egos.alter_egos)
        assert result.to_dict() == batched_baseline
