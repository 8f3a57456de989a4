"""The one atomic writer (repro.resilience.atomic) and the three files
written through it: forum datasets, link checkpoints, index snapshots.

A write that fails — here, a full disk reported by ``fsync`` — must
leave the previous file byte for byte and no temporary file behind.
"""

import errno
import os

import pytest

from repro.core.linker import AliasLinker, Match
from repro.forums.storage import save_forum
from repro.resilience.atomic import atomic_write
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.snapshot import save_index


def _forum_writes(request):
    forums = request.getfixturevalue("world").forums
    return (lambda path: save_forum(forums["tmg"], path),
            lambda path: save_forum(forums["dm"], path))


def _checkpoint_writes(request):
    def record(uid):
        match = Match(unknown_id=uid, candidate_id="dm/zoë", score=0.5,
                      accepted=True, first_stage_score=0.4)
        return lambda path: CheckpointStore(path).record(
            uid, [match], [("dm/zoë", 0.5)])

    return record("u1"), record("u2")


def _snapshot_writes(request):
    known = request.getfixturevalue("reddit_alter_egos").originals
    linker = AliasLinker().fit(known)

    def save(path, threshold):
        linker.threshold = threshold
        save_index(linker, path)

    return (lambda path: save(path, 0.0),
            lambda path: save(path, 0.5))


WRITERS = {
    "forum": ("tmg.jsonl", _forum_writes),
    "checkpoint": ("run.ckpt", _checkpoint_writes),
    "snapshot": ("dm.snap", _snapshot_writes),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_fsync_keeps_previous_file(writer, request, tmp_path,
                                          monkeypatch):
    name, make = WRITERS[writer]
    first, second = make(request)
    path = tmp_path / name
    first(path)
    previous = path.read_bytes()

    def full_disk(fd):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "fsync", full_disk)
    with pytest.raises(OSError) as failure:
        second(path)
    monkeypatch.undo()

    assert failure.value.errno == errno.ENOSPC
    assert path.read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_error_in_body_leaves_no_file(tmp_path):
    path = tmp_path / "new.bin"
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_write(path) as handle:
            handle.write(b"half")
            raise RuntimeError("mid-write")
    assert list(tmp_path.iterdir()) == []


def test_creates_missing_parent(tmp_path):
    path = tmp_path / "a" / "b" / "out.bin"
    with atomic_write(path) as handle:
        handle.write(b"payload")
    assert path.read_bytes() == b"payload"
    assert [p.name for p in path.parent.iterdir()] == ["out.bin"]
