"""JSONL persistence for forum datasets.

Forums are stored as one JSON object per line: a header line describing
the forum, followed by one line per user record.  JSONL keeps memory
bounded on load (users stream one at a time) and diffs well under
version control.  A whole-directory layout maps one forum per file.

Crash safety (the collection runs the paper describes were multi-hour
scrapes; losing a dataset to a crash mid-save is not acceptable):

* :func:`save_forum` writes through
  :func:`~repro.resilience.atomic.atomic_write`, so readers never
  observe a half-written file and a failed save leaves the previous
  version intact;
* the header records ``n_users``, and loaders verify it — a truncated
  file (power loss, full disk, torn copy) raises
  :class:`~repro.errors.DatasetError` instead of silently yielding a
  smaller forum;
* a damaged file — a line that is not JSON, a byte that is not UTF-8,
  a compressed stream that is cut short — raises
  :class:`~repro.errors.DatasetError` naming the path (and the line
  where there is one);
* ``recover=True`` flips loaders into salvage mode: corrupt lines and
  the truncated tail are skipped (and counted in the
  ``storage_recovered_records_total`` metric) and everything parseable
  is returned.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import zlib
from pathlib import Path
from typing import (
    Callable,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.errors import DatasetError
from repro.forums.models import Forum, Thread, UserRecord
from repro.obs.logging import get_logger
from repro.obs.metrics import counter
from repro.resilience.atomic import atomic_write

log = get_logger(__name__)

PathLike = Union[str, os.PathLike]

#: Schema version written in every header; bumped on breaking changes.
SCHEMA_VERSION = 1

#: Corrupt or surplus records skipped by ``recover=True`` loads.
_RECOVERED = counter("storage_recovered_records_total")
#: Atomic save_forum completions.
_SAVES = counter("storage_saves_total")

#: What a compressed stream that is cut short or garbled raises.
_BAD_COMPRESSION = (EOFError, zlib.error, gzip.BadGzipFile)


def _is_gz(path: Path) -> bool:
    return path.name.endswith(".gz")


def _open(path: Path) -> IO[bytes]:
    """Open *path* for binary reading, transparently handling gzip."""
    return gzip.open(path, "rb") if _is_gz(path) else open(path, "rb")


def _json_line(item: Dict) -> bytes:
    return json.dumps(item, ensure_ascii=False).encode("utf-8") + b"\n"


def save_forum(forum: Forum, path: PathLike) -> None:
    """Write *forum* to *path* in JSONL format, atomically.

    The first line is a header with the forum name, UTC offset,
    sections, threads and the user-record count; each following line is
    one user record.  The bytes land in a temporary file beside *path*
    that is fsynced and renamed over it, so a crash mid-save leaves any
    previous version intact and never a torn file.
    """
    path = Path(path)
    header = {
        "schema": SCHEMA_VERSION,
        "kind": "forum-header",
        "name": forum.name,
        "utc_offset_hours": forum.utc_offset_hours,
        "sections": list(forum.sections),
        "threads": [t.to_dict() for t in forum.threads.values()],
        "n_users": forum.n_users,
    }
    with atomic_write(path) as handle:
        # Closing a GzipFile on a fileobj writes the trailer and leaves
        # *handle* open for atomic_write to fsync.
        with (gzip.GzipFile(fileobj=handle, mode="wb") if _is_gz(path)
              else contextlib.nullcontext(handle)) as out:
            out.write(_json_line(header))
            for record in forum.users.values():
                out.write(_json_line(record.to_dict()))
    _SAVES.inc()


def _parse_record(path: Path, lineno: int, line: bytes) -> UserRecord:
    """One JSONL body line -> UserRecord, with uniform error wrapping."""
    try:
        data = json.loads(line.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}:{lineno}: invalid UTF-8") from exc
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path}:{lineno}: invalid JSON") from exc
    try:
        return UserRecord.from_dict(data)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DatasetError(
            f"{path}:{lineno}: malformed user record: {exc}") from exc


def _check_complete(path: Path, header: Dict, n_read: int) -> None:
    """Raise on a short (or padded) read vs. the header's promise."""
    expected = header.get("n_users")
    if expected is None:
        return
    expected = int(expected)
    if n_read != expected:
        kind = "truncated" if n_read < expected else "overlong"
        raise DatasetError(
            f"{path}: {kind} dataset: header promises {expected} user "
            f"record(s), found {n_read}")


def _skip(path: Path, lineno: int, reason: str) -> None:
    """Count and log a line a salvaging load skipped."""
    _RECOVERED.inc()
    log.warning("storage.recover", path=str(path), line=lineno,
                reason=reason)


def _raw_lines(path: Path, fh: IO[bytes],
               recover: bool) -> Iterator[bytes]:
    """The lines of *fh*, undecoded.

    A bad byte then fails only its own line (in :func:`_parse_record`),
    and a damaged compressed stream raises
    :class:`~repro.errors.DatasetError` — or, with *recover*, ends the
    lines, keeping every one read before it.
    """
    lineno = 0
    try:
        for lineno, line in enumerate(fh, start=1):
            yield line
    except _BAD_COMPRESSION as exc:
        reason = f"corrupt compressed stream: {exc}"
        if not recover:
            raise DatasetError(f"{path}: {reason}") from exc
        _skip(path, lineno + 1, reason)


def _records(path: Path, lines: Iterable[bytes], recover: bool,
             ) -> Iterator[Tuple[int, UserRecord]]:
    """Parse the body *lines* (the header already consumed) into
    ``(line number, record)``; with *recover*, skip the bad ones."""
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            record = _parse_record(path, lineno, line)
        except DatasetError as exc:
            if not recover:
                raise
            _skip(path, lineno, str(exc))
            continue
        yield lineno, record


def iter_user_records(path: PathLike,
                      recover: bool = False) -> Iterator[UserRecord]:
    """Stream the user records of a stored forum without loading it all.

    Validates the header's ``n_users`` against what the file actually
    contains and raises :class:`~repro.errors.DatasetError` on a short
    read.  With *recover*, corrupt lines and a truncated tail are
    skipped instead (salvage mode).
    """
    path = Path(path)
    with _open(path) as fh:
        lines = _raw_lines(path, fh, recover)
        header = _parse_header(path, next(lines, b""))
        n_read = 0
        for _, record in _records(path, lines, recover):
            n_read += 1
            yield record
    if not recover:
        _check_complete(path, header, n_read)


def load_forum(path: PathLike,
               keep: Optional[Callable[[UserRecord], bool]] = None,
               recover: bool = False) -> Forum:
    """Load a forum from *path*.

    Parameters
    ----------
    path:
        JSONL file written by :func:`save_forum` (optionally ``.gz``).
    keep:
        Optional predicate; user records for which it returns ``False``
        are skipped at load time (useful to subsample huge datasets).
    recover:
        Salvage mode for damaged files: corrupt lines (bad JSON or bad
        UTF-8), duplicate aliases and a truncated tail — also of a
        compressed stream — are skipped (and counted in the
        ``storage_recovered_records_total`` metric) instead of raising.
    """
    path = Path(path)
    with _open(path) as fh:
        lines = _raw_lines(path, fh, recover)
        header = _parse_header(path, next(lines, b""))
        forum = Forum(
            name=str(header["name"]),
            utc_offset_hours=int(header.get("utc_offset_hours", 0)),
            sections=list(header.get("sections", [])),
        )
        for raw in header.get("threads", ()):
            thread = Thread.from_dict(raw)
            forum.threads[thread.thread_id] = thread
        n_read = 0
        for lineno, record in _records(path, lines, recover):
            if record.alias in forum.users:
                reason = f"duplicate alias {record.alias!r}"
                if not recover:
                    raise DatasetError(f"{path}:{lineno}: {reason}")
                _skip(path, lineno, reason)
                continue
            n_read += 1
            if keep is not None and not keep(record):
                continue
            forum.users[record.alias] = record
    if not recover:
        _check_complete(path, header, n_read)
    return forum


def _parse_header(path: Path, line: bytes) -> Dict:
    if not line:
        raise DatasetError(f"{path}: empty dataset file")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DatasetError(f"{path}: invalid header line") from exc
    if not isinstance(header, dict) or header.get("kind") != "forum-header":
        raise DatasetError(f"{path}: missing forum header")
    schema = header.get("schema")
    if schema != SCHEMA_VERSION:
        raise DatasetError(
            f"{path}: unsupported schema version {schema!r} "
            f"(expected {SCHEMA_VERSION})")
    if "name" not in header:
        raise DatasetError(f"{path}: header lacks forum name")
    return header


def save_world(forums: List[Forum], directory: PathLike) -> List[Path]:
    """Save several forums, one file per forum, into *directory*.

    Returns the written paths.  File names are ``<forum-name>.jsonl``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for forum in forums:
        path = directory / f"{forum.name}.jsonl"
        save_forum(forum, path)
        paths.append(path)
    return paths


def load_world(directory: PathLike,
               recover: bool = False) -> Dict[str, Forum]:
    """Load every ``*.jsonl`` / ``*.jsonl.gz`` forum file in *directory*."""
    directory = Path(directory)
    if not directory.is_dir():
        raise DatasetError(f"{directory} is not a directory")
    forums: Dict[str, Forum] = {}
    for path in sorted(directory.iterdir()):
        if path.name.endswith(".tmp"):
            continue  # an atomic save's temp file; never a dataset
        if path.suffix == ".jsonl" or path.name.endswith(".jsonl.gz"):
            forum = load_forum(path, recover=recover)
            forums[forum.name] = forum
    if not forums:
        raise DatasetError(f"no forum files found in {directory}")
    return forums
