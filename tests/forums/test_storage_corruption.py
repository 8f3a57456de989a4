"""Crash-safety tests for JSONL storage: torn writes, damaged files."""

import gzip
import json

import pytest

from repro.errors import DatasetError
from repro.forums.models import UserRecord
from repro.forums.storage import (
    iter_user_records,
    load_forum,
    load_world,
    save_forum,
)
from repro.obs.metrics import counter

_RECOVERED = counter("storage_recovered_records_total")


@pytest.fixture
def saved(world, tmp_path):
    path = tmp_path / "tmg.jsonl"
    save_forum(world.forums["tmg"], path)
    return path


def _lines(path):
    return path.read_text().splitlines()


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestCorruptedLines:
    def test_bit_flipped_line_raises(self, saved):
        lines = _lines(saved)
        # flip one bit in the opening brace of the first record line
        victim = bytearray(lines[1].encode("utf-8"))
        victim[0] ^= 0x08  # '{' -> 's': guaranteed invalid JSON
        lines[1] = victim.decode("utf-8", errors="replace")
        _write_lines(saved, lines)
        with pytest.raises(DatasetError):
            load_forum(saved)

    def test_non_json_line_raises_with_lineno(self, saved):
        lines = _lines(saved)
        lines[2] = "!! scribble !!"
        _write_lines(saved, lines)
        with pytest.raises(DatasetError, match=r":3: invalid JSON"):
            load_forum(saved)

    def test_wrong_shape_record_raises(self, saved):
        lines = _lines(saved)
        lines[1] = json.dumps({"alias": "ghost"})  # missing fields
        _write_lines(saved, lines)
        with pytest.raises(DatasetError, match="malformed user record"):
            load_forum(saved)

    def test_recover_skips_corrupt_lines(self, world, saved):
        lines = _lines(saved)
        lines[1] = "{torn"
        _write_lines(saved, lines)
        before = _RECOVERED.value
        forum = load_forum(saved, recover=True)
        assert forum.n_users == world.forums["tmg"].n_users - 1
        assert _RECOVERED.value == before + 1


class TestTruncation:
    def test_missing_trailer_records_raise(self, saved):
        lines = _lines(saved)
        _write_lines(saved, lines[:-3])
        with pytest.raises(DatasetError,
                           match="truncated dataset") as excinfo:
            load_forum(saved)
        assert "header promises" in str(excinfo.value)

    def test_half_written_last_line_raises(self, saved):
        text = saved.read_text()
        saved.write_text(text[:len(text) - 40])  # tear mid-record
        with pytest.raises(DatasetError):
            load_forum(saved)

    def test_surplus_records_raise(self, saved):
        lines = _lines(saved)
        lines.append(lines[-1].replace(
            json.loads(lines[-1])["alias"], "impostor"))
        _write_lines(saved, lines)
        with pytest.raises(DatasetError, match="overlong dataset"):
            load_forum(saved)

    def test_empty_tail_lines_are_harmless(self, world, saved):
        saved.write_text(saved.read_text() + "\n\n\n")
        forum = load_forum(saved)
        assert forum.n_users == world.forums["tmg"].n_users

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "void.jsonl"
        path.write_text("")
        with pytest.raises(DatasetError, match="empty dataset"):
            load_forum(path)

    def test_recover_salvages_truncated_file(self, world, saved):
        lines = _lines(saved)
        _write_lines(saved, lines[:-3])
        forum = load_forum(saved, recover=True)
        assert forum.n_users == world.forums["tmg"].n_users - 3

    def test_iter_user_records_checks_completeness(self, saved):
        lines = _lines(saved)
        _write_lines(saved, lines[:-1])
        with pytest.raises(DatasetError, match="truncated dataset"):
            list(iter_user_records(saved))


class TestAtomicSave:
    def test_no_temp_file_left_behind(self, world, tmp_path):
        save_forum(world.forums["tmg"], tmp_path / "ok.jsonl")
        assert [p.name for p in tmp_path.iterdir()] == ["ok.jsonl"]

    def test_gzip_atomic_roundtrip(self, world, tmp_path):
        path = tmp_path / "tmg.jsonl.gz"
        save_forum(world.forums["tmg"], path)
        assert not list(tmp_path.glob("*.tmp"))
        forum = load_forum(path)
        assert forum.n_users == world.forums["tmg"].n_users

    def test_failed_gzip_save_closes_wrapper(self, world, tmp_path,
                                             monkeypatch):
        path = tmp_path / "tmg.jsonl.gz"
        save_forum(world.forums["tmg"], path)
        previous = path.read_bytes()
        opened = []

        class Recorder(gzip.GzipFile):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        def broken(record):
            raise RuntimeError("unserialisable record")

        monkeypatch.setattr(gzip, "GzipFile", Recorder)
        monkeypatch.setattr(UserRecord, "to_dict", broken)
        with pytest.raises(RuntimeError, match="unserialisable"):
            save_forum(world.forums["dm"], path)
        assert len(opened) == 1 and opened[0].closed
        assert path.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_load_world_ignores_stale_temp(self, world, tmp_path):
        save_forum(world.forums["tmg"], tmp_path / "tmg.jsonl")
        # a crashed non-atomic writer left a torn staging file behind
        (tmp_path / "dm.jsonl.tmp").write_text("{half a head")
        forums = load_world(tmp_path)
        assert sorted(forums) == ["tmg"]


class TestDamagedBytes:
    """Damage below the JSON layer: a byte that is not UTF-8, a
    compressed stream cut short.  Each is a typed DatasetError naming
    the file, and salvage mode keeps everything before it."""

    def _break_utf8(self, path, index):
        raw = path.read_bytes().split(b"\n")
        raw[index] = raw[index].replace(b'"', b'"\xff', 1)
        path.write_bytes(b"\n".join(raw))

    def test_bad_utf8_names_path_and_line(self, saved):
        self._break_utf8(saved, 2)
        with pytest.raises(DatasetError,
                           match=rf"{saved.name}:3: invalid UTF-8"):
            load_forum(saved)

    def test_bad_utf8_in_header_raises(self, saved):
        self._break_utf8(saved, 0)
        with pytest.raises(DatasetError, match="invalid header line"):
            load_forum(saved, recover=True)

    def test_recover_skips_bad_utf8_line(self, world, saved):
        self._break_utf8(saved, 2)
        before = _RECOVERED.value
        forum = load_forum(saved, recover=True)
        assert forum.n_users == world.forums["tmg"].n_users - 1
        assert _RECOVERED.value == before + 1

    def test_recover_counts_each_skipped_line_once(self, world, saved):
        """A line of bad JSON and a later line of bad UTF-8 are each
        skipped and counted once."""
        lines = _lines(saved)
        lines[1] = "{torn"
        _write_lines(saved, lines)
        self._break_utf8(saved, len(lines) - 1)
        before = _RECOVERED.value
        forum = load_forum(saved, recover=True)
        assert forum.n_users == world.forums["tmg"].n_users - 2
        assert _RECOVERED.value == before + 2

    def test_iter_user_records_bad_utf8(self, world, saved):
        self._break_utf8(saved, 2)
        with pytest.raises(DatasetError, match=r":3: invalid UTF-8"):
            list(iter_user_records(saved))
        assert len(list(iter_user_records(saved, recover=True))) == \
            world.forums["tmg"].n_users - 1

    @pytest.fixture
    def truncated_gz(self, world, tmp_path):
        path = tmp_path / "tmg.jsonl.gz"
        save_forum(world.forums["tmg"], path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) * 2 // 3])
        return path

    def test_truncated_gzip_raises_typed_error(self, truncated_gz):
        with pytest.raises(DatasetError,
                           match=rf"{truncated_gz.name}: corrupt "
                                 r"compressed stream"):
            load_forum(truncated_gz)

    def test_recover_keeps_records_before_truncation(self, world,
                                                     truncated_gz):
        forum = load_forum(truncated_gz, recover=True)
        full = world.forums["tmg"]
        assert 0 < forum.n_users < full.n_users
        for alias, record in forum.users.items():
            assert record == full.users[alias]

