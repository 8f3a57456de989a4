"""Bit-identity of linking output across the perf mechanics.

The perf subsystem's contract is that caching and blocked scoring are
pure mechanics: ``link()`` output is **identical** — not approximately
equal — whether profiles come warm from a shared cache or are computed
fresh, however many stage-1 blocks the known corpus spans, across
repeated links and refits, and under checkpoint/resume.  The block
size is a module constant, so the multi-block cases patch
:data:`repro.perf.blocked.BLOCK_ROWS`.  Everything here compares full
``LinkResult.to_dict()`` payloads for exact equality.
"""

import pytest

from repro.core.batch import BatchedLinker
from repro.core.linker import AliasLinker
from repro.perf import blocked


def _run(dataset, **kwargs):
    linker = AliasLinker(threshold=0.4, **kwargs)
    linker.fit(dataset.originals)
    return linker.link(dataset.alter_egos)


@pytest.fixture(scope="module")
def baseline(reddit_alter_egos):
    """The reference run: fresh cache, default block size (one block
    spans the whole test corpus)."""
    return _run(reddit_alter_egos).to_dict()


class TestAliasLinkerEquivalence:
    def test_tiny_blocks_are_bit_identical(self, reddit_alter_egos,
                                           baseline, monkeypatch):
        monkeypatch.setattr(blocked, "BLOCK_ROWS", 3)
        assert _run(reddit_alter_egos).to_dict() == baseline

    def test_everything_at_once_is_bit_identical(self,
                                                 reddit_alter_egos,
                                                 baseline, monkeypatch):
        # Blocks of 5 over profiles another linker already cached.
        monkeypatch.setattr(blocked, "BLOCK_ROWS", 5)
        warm = AliasLinker(threshold=0.4).fit(reddit_alter_egos.originals)
        warm.link(reddit_alter_egos.alter_egos)
        assert _run(reddit_alter_egos,
                    cache=warm.cache).to_dict() == baseline


class TestStage1Equivalence:
    """Every stage-1 block size produces the same bits end to end."""

    def test_single_block_is_bit_identical(self, reddit_alter_egos,
                                           baseline, monkeypatch):
        # One block spanning the corpus is the one-shot top-k path.
        n_known = len(reddit_alter_egos.originals)
        monkeypatch.setattr(blocked, "BLOCK_ROWS", n_known)
        assert _run(reddit_alter_egos).to_dict() == baseline

    @pytest.mark.parametrize("block_size", [1, 2, 7])
    def test_block_sizes_are_bit_identical(self, reddit_alter_egos,
                                           baseline, block_size,
                                           monkeypatch):
        monkeypatch.setattr(blocked, "BLOCK_ROWS", block_size)
        assert _run(reddit_alter_egos).to_dict() == baseline

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


class TestBatchedEquivalence:
    @pytest.fixture(scope="class")
    def batched_baseline(self, reddit_alter_egos):
        linker = BatchedLinker(batch_size=12, threshold=0.4)
        linker.fit(reddit_alter_egos.originals)
        return linker.link(reddit_alter_egos.alter_egos).to_dict()

    def test_multi_block_fold_is_bit_identical(self, reddit_alter_egos,
                                               batched_baseline,
                                               monkeypatch):
        # Every pool of more than 5 rows spans several blocks.
        monkeypatch.setattr(blocked, "BLOCK_ROWS", 5)
        linker = BatchedLinker(batch_size=12, threshold=0.4)
        linker.fit(reddit_alter_egos.originals)
        result = linker.link(reddit_alter_egos.alter_egos)
        assert result.to_dict() == batched_baseline
