"""Checkpoint store + resume-equals-uninterrupted (repro.resilience)."""

import json

import pytest

from repro.core.batch import BatchedLinker
from repro.core.linker import AliasLinker, Match
from repro.errors import CheckpointError
from repro.resilience.checkpoint import CheckpointStore, open_store


def _match(uid="tmg/u1", cid="reddit/u9", score=0.5):
    return Match(unknown_id=uid, candidate_id=cid, score=score,
                 accepted=score >= 0.419, first_stage_score=0.4)


class TestStore:
    def test_record_and_reload(self, tmp_path):
        path = tmp_path / "run.ckpt"
        store = CheckpointStore(path, fingerprint={"k": 10})
        store.record("tmg/u1", [_match()], [("reddit/u9", 0.5),
                                            ("reddit/u3", 0.1)])
        again = CheckpointStore(path, fingerprint={"k": 10}).load()
        assert "tmg/u1" in again
        assert again.matches_for("tmg/u1") == [_match()]
        assert again.scores_for("tmg/u1") == [("reddit/u9", 0.5),
                                              ("reddit/u3", 0.1)]

    def test_file_always_parseable_between_records(self, tmp_path):
        path = tmp_path / "run.ckpt"
        store = CheckpointStore(path)
        for i in range(5):
            store.record(f"u{i}", [_match(uid=f"u{i}")], [])
            # every on-disk state must be a loadable checkpoint
            assert len(CheckpointStore(path).load()) == i + 1

    def test_skipped_entries_roundtrip(self, tmp_path):
        path = tmp_path / "run.ckpt"
        store = CheckpointStore(path)
        store.record("bad/doc", [], [],
                     skipped={"unknown_id": "bad/doc",
                              "reason": "text is None",
                              "stage": "validate"})
        again = CheckpointStore(path).load()
        assert again.skipped_for("bad/doc")["stage"] == "validate"
        assert again.matches_for("bad/doc") == []

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        CheckpointStore(path, fingerprint={"k": 10}).record(
            "u", [_match()], [])
        with pytest.raises(CheckpointError):
            CheckpointStore(path, fingerprint={"k": 20}).load()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointStore(tmp_path / "nope.ckpt").load()

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_text("{not json\n")
        with pytest.raises(CheckpointError):
            CheckpointStore(path).load()

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_text(json.dumps({"kind": "forum-header"}) + "\n")
        with pytest.raises(CheckpointError):
            CheckpointStore(path).load()

    def test_corrupt_entry_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        CheckpointStore(path).record("u", [_match()], [])
        with open(path, "a") as fh:
            fh.write("{torn line\n")
        with pytest.raises(CheckpointError):
            CheckpointStore(path).load()

    def test_no_stray_temp_file(self, tmp_path):
        path = tmp_path / "run.ckpt"
        CheckpointStore(path).record("u", [_match()], [])
        assert not list(tmp_path.glob("*.tmp"))

    def test_discard(self, tmp_path):
        path = tmp_path / "run.ckpt"
        store = CheckpointStore(path)
        store.record("u", [_match()], [])
        store.discard()
        assert not path.exists()
        assert len(store) == 0


class TestDegradedEntriesRejected:
    """Checkpoints written by the removed degraded mode (a ``degraded``
    match, a ``deadline`` quarantine) must not be replayed: a full run
    would link those unknowns."""

    @staticmethod
    def _write(path, entry):
        header = {"kind": "link-checkpoint", "schema": 1,
                  "fingerprint": None, "n_entries": 2}
        plain = {"unknown_id": "tmg/ok", "matches": [_match().to_dict()],
                 "scores": [["reddit/u9", 0.5]], "skipped": None}
        path.write_text("".join(json.dumps(obj) + "\n"
                                for obj in (header, plain, entry)))

    @pytest.mark.parametrize("entry", [
        {"unknown_id": "tmg/u1",
         "matches": [dict(_match().to_dict(), degraded=True,
                          degraded_reasons=["stage1_only"])],
         "scores": [["reddit/u9", 0.5]], "skipped": None},
        {"unknown_id": "tmg/u1", "matches": [], "scores": [],
         "skipped": {"unknown_id": "tmg/u1",
                     "reason": "deadline budget exhausted before "
                               "search-space reduction",
                     "stage": "deadline"}},
    ], ids=["degraded-match", "deadline-quarantine"])
    @pytest.mark.parametrize("salvage", [False, True])
    def test_load_rejects(self, tmp_path, entry, salvage):
        path = tmp_path / "old.ckpt"
        self._write(path, entry)
        with pytest.raises(CheckpointError) as exc:
            CheckpointStore(path).load(salvage=salvage)
        message = str(exc.value)
        assert f"{path}:3:" in message
        assert "tmg/u1" in message
        assert "rerun without --resume" in message
        assert not (tmp_path / "old.ckpt.quarantined").exists()

    def test_resume_rejects(self, tmp_path):
        path = tmp_path / "old.ckpt"
        self._write(path, {"unknown_id": "tmg/u1", "matches": [],
                           "scores": [],
                           "skipped": {"unknown_id": "tmg/u1",
                                       "reason": "", "stage": "deadline"}})
        with pytest.raises(CheckpointError):
            open_store(path, resume=True)


class TestOpenStore:
    def test_none_path_disables(self):
        assert open_store(None) is None

    def test_resume_missing_file_starts_fresh(self, tmp_path):
        store = open_store(tmp_path / "new.ckpt", resume=True)
        assert len(store) == 0

    def test_resume_existing_loads(self, tmp_path):
        path = tmp_path / "run.ckpt"
        CheckpointStore(path).record("u", [_match()], [])
        assert "u" in open_store(path, resume=True)


def _crash_after(n):
    """A CheckpointStore.record replacement raising KeyboardInterrupt
    (a real kill, not an Exception the quarantine logic would swallow)
    after *n* successful records."""
    original = CheckpointStore.record
    state = {"recorded": 0}

    def record(store, unknown_id, matches, scores, skipped=None):
        original(store, unknown_id, matches, scores, skipped=skipped)
        state["recorded"] += 1
        if state["recorded"] >= n:
            raise KeyboardInterrupt("simulated kill -9")

    return record


class TestResumeEqualsUninterrupted:
    def test_batched_linker_resume(self, tmp_path, monkeypatch,
                                   reddit_alter_egos):
        unknowns = reddit_alter_egos.alter_egos[:8]
        known = reddit_alter_egos.originals

        def fresh():
            return BatchedLinker(batch_size=20, k=5,
                                 threshold=0.0).fit(known)

        uninterrupted = fresh().link(unknowns)

        path = tmp_path / "batched.ckpt"
        monkeypatch.setattr(CheckpointStore, "record", _crash_after(3))
        with pytest.raises(KeyboardInterrupt):
            fresh().link(unknowns, checkpoint=path)
        monkeypatch.undo()

        done_before = len(CheckpointStore(path).load())
        assert 0 < done_before < len(unknowns)

        resumed = fresh().link(unknowns, checkpoint=path, resume=True)
        assert resumed == uninterrupted
        assert json.dumps(resumed.to_dict(), sort_keys=True) == \
            json.dumps(uninterrupted.to_dict(), sort_keys=True)

    def test_alias_linker_resume(self, tmp_path, monkeypatch,
                                 reddit_alter_egos):
        unknowns = reddit_alter_egos.alter_egos[:8]
        known = reddit_alter_egos.originals

        def fresh():
            return AliasLinker(threshold=0.0).fit(known)

        uninterrupted = fresh().link(unknowns)

        path = tmp_path / "alias.ckpt"
        monkeypatch.setattr(CheckpointStore, "record", _crash_after(4))
        with pytest.raises(KeyboardInterrupt):
            fresh().link(unknowns, checkpoint=path)
        monkeypatch.undo()

        resumed = fresh().link(unknowns, checkpoint=path, resume=True)
        assert resumed == uninterrupted

    def test_checkpointed_equals_plain(self, tmp_path,
                                       reddit_alter_egos):
        """Turning checkpointing on must not change the result."""
        unknowns = reddit_alter_egos.alter_egos[:6]
        known = reddit_alter_egos.originals
        plain = AliasLinker(threshold=0.0).fit(known).link(unknowns)
        ckpt = AliasLinker(threshold=0.0).fit(known).link(
            unknowns, checkpoint=tmp_path / "c.ckpt")
        assert ckpt == plain

    def test_resume_salvages_torn_tail(self, tmp_path,
                                       reddit_alter_egos):
        """A checkpoint with a truncated final line must resume: the
        complete records are kept, the torn one is quarantined to a
        sidecar, and the result is bit-identical to an uninterrupted
        run."""
        unknowns = reddit_alter_egos.alter_egos[:8]
        known = reddit_alter_egos.originals

        def fresh():
            return AliasLinker(threshold=0.0).fit(known)

        uninterrupted = fresh().link(unknowns)

        path = tmp_path / "torn.ckpt"
        fresh().link(unknowns[:5], checkpoint=path)
        # Simulate a crash mid-append: cut the final record in half.
        lines = path.read_text().splitlines()
        torn = lines[-1][:len(lines[-1]) // 2]
        path.write_text("\n".join(lines[:-1] + [torn]) + "\n")

        # The strict loader still refuses the file ...
        with pytest.raises(CheckpointError):
            CheckpointStore(path).load()
        # ... but a salvage load keeps the 4 complete records and
        # quarantines the torn one.
        salvaged = CheckpointStore(path).load(salvage=True)
        assert len(salvaged) == 4
        sidecar = tmp_path / "torn.ckpt.quarantined"
        assert sidecar.read_text().strip() == torn

        resumed = fresh().link(unknowns, checkpoint=path, resume=True)
        assert resumed == uninterrupted
        assert json.dumps(resumed.to_dict(), sort_keys=True) == \
            json.dumps(uninterrupted.to_dict(), sort_keys=True)

    def test_salvage_rejects_mid_file_corruption(self, tmp_path):
        """Damage before the tail is untrustworthy even for salvage."""
        path = tmp_path / "mid.ckpt"
        store = CheckpointStore(path)
        store.record("u1", [_match(uid="u1")], [])
        store.record("u2", [_match(uid="u2")], [])
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # corrupt u1, keep u2
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError):
            CheckpointStore(path).load(salvage=True)

    def test_completed_resume_recomputes_nothing(self, tmp_path,
                                                 reddit_alter_egos,
                                                 monkeypatch):
        unknowns = reddit_alter_egos.alter_egos[:4]
        known = reddit_alter_egos.originals
        path = tmp_path / "done.ckpt"
        first = AliasLinker(threshold=0.0).fit(known).link(
            unknowns, checkpoint=path)

        def exploding_vectors(self, unknown, candidates):
            raise AssertionError("stage 2 ran on a completed resume")

        monkeypatch.setattr(AliasLinker, "_stage2_vectors",
                            exploding_vectors)
        resumed = AliasLinker(threshold=0.0).fit(known).link(
            unknowns, checkpoint=path, resume=True)
        assert resumed == first
