"""Graceful degradation: malformed unknowns are quarantined, not fatal."""

import dataclasses

import pytest

from repro.core.batch import BatchedLinker
from repro.core.documents import AliasDocument
from repro.core.linker import AliasLinker, check_document
from repro.errors import DatasetError
from repro.obs.metrics import counter

_ACCEPTED = counter("attribution_accepted_total")
_REJECTED = counter("attribution_rejected_total")
_SKIPPED = counter("attribution_skipped_total")


def _broken(document, **overrides):
    return dataclasses.replace(document, **overrides)


class _CounterDeltas:
    def __enter__(self):
        self.accepted = _ACCEPTED.value
        self.rejected = _REJECTED.value
        self.skipped = _SKIPPED.value
        return self

    def __exit__(self, *exc):
        self.accepted = _ACCEPTED.value - self.accepted
        self.rejected = _REJECTED.value - self.rejected
        self.skipped = _SKIPPED.value - self.skipped
        return False


class TestCheckDocument:
    def test_accepts_real_document(self, reddit_alter_egos):
        check_document(reddit_alter_egos.alter_egos[0])

    @pytest.mark.parametrize("overrides, needle", [
        ({"text": None}, "text is"),
        ({"doc_id": ""}, "doc_id"),
        ({"words": None}, "words"),
        ({"words": (3, 5)}, "words"),
        ({"activity": [[1.0, 2.0]]}, "1-dimensional"),
        ({"activity": [float("nan")] * 24}, "non-finite"),
        ({"activity": ["high", "low"]}, "not numeric"),
    ])
    def test_rejects_malformed(self, reddit_alter_egos, overrides,
                               needle):
        doc = _broken(reddit_alter_egos.alter_egos[0], **overrides)
        with pytest.raises(DatasetError, match=needle):
            check_document(doc)

    def test_rejects_non_document(self):
        with pytest.raises(DatasetError, match="not an AliasDocument"):
            check_document({"doc_id": "u1"})

    def test_rejects_empty_document(self):
        doc = AliasDocument(doc_id="e", alias="e", forum="f", text="",
                            words=(), timestamps=(), activity=None)
        with pytest.raises(DatasetError, match="empty"):
            check_document(doc)


class TestBatchedQuarantine:
    def test_bad_unknown_does_not_abort_run(self, reddit_alter_egos):
        good = reddit_alter_egos.alter_egos[:5]
        bad = _broken(good[2], text=None)
        unknowns = good[:2] + [bad] + good[3:]
        linker = BatchedLinker(batch_size=20, threshold=0.0).fit(
            reddit_alter_egos.originals)

        with _CounterDeltas() as delta:
            result = linker.link(unknowns)

        assert len(result.skipped) == 1
        entry = result.skipped[0]
        assert entry.unknown_id == bad.doc_id
        assert entry.stage == "validate"
        assert "text is" in entry.reason
        # Every well-formed unknown was still linked.
        assert len(result.matches) == len(unknowns) - 1
        assert bad.doc_id not in {m.unknown_id for m in result.matches}
        # Accounting invariant over the run.
        assert delta.skipped == 1
        assert delta.accepted + delta.rejected + delta.skipped == \
            len(unknowns)

    def test_all_bad_still_returns(self, reddit_alter_egos):
        bad = [_broken(d, text=None)
               for d in reddit_alter_egos.alter_egos[:3]]
        linker = BatchedLinker(batch_size=20).fit(
            reddit_alter_egos.originals)
        result = linker.link(bad)
        assert result.matches == []
        assert len(result.skipped) == 3


class TestAliasLinkerQuarantine:
    def test_bad_unknown_quarantined(self, reddit_alter_egos):
        good = reddit_alter_egos.alter_egos[:4]
        bad = _broken(good[0], words=None)
        unknowns = [bad] + good[1:]
        linker = AliasLinker(threshold=0.0).fit(
            reddit_alter_egos.originals)

        with _CounterDeltas() as delta:
            result = linker.link(unknowns)

        assert [s.unknown_id for s in result.skipped] == [bad.doc_id]
        assert len(result.matches) == len(unknowns) - 1
        assert delta.accepted + delta.rejected + delta.skipped == \
            len(unknowns)

    def test_skipped_survive_serialization(self, reddit_alter_egos):
        from repro.core.linker import LinkResult

        good = reddit_alter_egos.alter_egos[:3]
        bad = _broken(good[1], text=None)
        linker = AliasLinker(threshold=0.0).fit(
            reddit_alter_egos.originals)
        result = linker.link([good[0], bad, good[2]])
        assert LinkResult.from_dict(result.to_dict()) == result

    def test_idless_document_gets_placeholder(self, reddit_alter_egos):
        bad = _broken(reddit_alter_egos.alter_egos[0], doc_id="")
        linker = AliasLinker(threshold=0.0).fit(
            reddit_alter_egos.originals)
        result = linker.link([bad])
        assert result.skipped[0].unknown_id == "<unknown #0>"

    def test_link_one_raises(self, reddit_alter_egos):
        bad = _broken(reddit_alter_egos.alter_egos[0], text=None)
        linker = AliasLinker(threshold=0.0).fit(
            reddit_alter_egos.originals)
        with pytest.raises(DatasetError, match="text is"):
            linker.link_one(bad)

    def test_stage2_failure_quarantined(self, reddit_alter_egos,
                                        monkeypatch):
        unknowns = reddit_alter_egos.alter_egos[:4]
        linker = AliasLinker(threshold=0.0).fit(
            reddit_alter_egos.originals)
        victim = unknowns[1].doc_id
        original = AliasLinker._stage2_vectors

        def flaky_vectors(self, unknown, candidates):
            if unknown.doc_id == victim:
                raise RuntimeError("GPU fell off the bus")
            return original(self, unknown, candidates)

        monkeypatch.setattr(AliasLinker, "_stage2_vectors",
                            flaky_vectors)
        result = linker.link(unknowns)
        assert [s.unknown_id for s in result.skipped] == [victim]
        assert result.skipped[0].stage == "attribute"
        assert "GPU fell off the bus" in result.skipped[0].reason
        assert len(result.matches) == 3
