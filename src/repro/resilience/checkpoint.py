"""Atomic, resumable checkpoints for long-running linking runs.

Linking tens of thousands of unknown aliases against a large known set
is a multi-hour batch job; a crash at hour three must not cost hours
one and two.  A :class:`CheckpointStore` persists the per-unknown
output of :class:`~repro.core.batch.BatchedLinker` /
:class:`~repro.core.linker.AliasLinker` as it is produced, and a
resumed run skips every unknown already present.

File format — JSONL, one object per line:

* line 1: ``{"kind": "link-checkpoint", "schema": 1,
  "fingerprint": {...}}`` — the fingerprint pins the run configuration
  (known-corpus size, k, threshold, batch size) so a checkpoint is
  never silently replayed against a different run;
* following lines: ``{"unknown_id": ..., "matches": [...],
  "scores": [[candidate_id, score], ...]}`` — one fully-linked unknown
  per line, in completion order.

Durability: every :meth:`record` rewrites the file to a sibling
``*.tmp`` and atomically :func:`os.replace`-s it over the target, so
the file on disk is always a complete, parseable checkpoint — a crash
can lose at most the unknown in flight.  Scores are round-tripped
through JSON at record time, which is exact for Python floats, so a
resumed run's :class:`~repro.core.linker.LinkResult` is identical to an
uninterrupted one.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import CheckpointError
from repro.obs.logging import get_logger
from repro.obs.metrics import counter

log = get_logger(__name__)

PathLike = Union[str, os.PathLike]

#: Checkpoint schema version; bumped on breaking format changes.
CHECKPOINT_SCHEMA = 1

#: Atomic checkpoint flushes performed.
_WRITES = counter("checkpoint_writes_total")
#: Unknowns skipped on resume because a checkpoint already had them.
_RESUMED = counter("checkpoint_entries_resumed_total")
#: Torn trailing lines quarantined by salvage loads.
_SALVAGED = counter("checkpoint_lines_salvaged_total")


def _degraded_entry(entry: Dict[str, Any]) -> bool:
    """Whether *entry* was written by the removed degraded mode: a
    match flagged ``degraded`` or a ``deadline`` quarantine.  A full
    run would link such an unknown, so replaying it is wrong."""
    matches = entry.get("matches")
    skipped = entry.get("skipped")
    return (isinstance(matches, list)
            and any(isinstance(m, dict) and "degraded" in m
                    for m in matches)) \
        or (isinstance(skipped, dict)
            and skipped.get("stage") == "deadline")


def _roundtrip(value: Any) -> Any:
    """Normalize *value* through JSON so recorded-now and loaded-later
    entries compare equal (exact for floats; tuples become lists)."""
    return json.loads(json.dumps(value))


class CheckpointStore:
    """Per-unknown results of one linking run, persisted atomically.

    Parameters
    ----------
    path:
        Checkpoint file location (created on first :meth:`record`).
    fingerprint:
        JSON-serializable description of the run configuration.  On
        :meth:`load`, a stored fingerprint that differs raises
        :class:`~repro.errors.CheckpointError`.
    """

    def __init__(self, path: PathLike,
                 fingerprint: Optional[Dict[str, Any]] = None) -> None:
        self.path = Path(path)
        self.fingerprint = _roundtrip(fingerprint) \
            if fingerprint is not None else None
        self._entries: Dict[str, Dict[str, Any]] = {}

    # -- state ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, unknown_id: str) -> bool:
        return unknown_id in self._entries

    @property
    def completed_ids(self) -> List[str]:
        """Unknown ids already linked, in completion order."""
        return list(self._entries)

    def matches_for(self, unknown_id: str) -> List["Match"]:
        """The stored matches of *unknown_id* (usually exactly one)."""
        # Imported here, not at module level: repro.core.linker imports
        # this module for its checkpoint support.
        from repro.core.linker import Match

        entry = self._entries[unknown_id]
        return [Match.from_dict(m) for m in entry["matches"]]

    def scores_for(self, unknown_id: str) -> List[Tuple[str, float]]:
        """The stored candidate scores of *unknown_id*."""
        entry = self._entries[unknown_id]
        return [(str(cid), float(score))
                for cid, score in entry["scores"]]

    def skipped_for(self, unknown_id: str) -> Optional[Dict[str, Any]]:
        """The quarantine record of *unknown_id*, or ``None`` if it was
        linked normally (see ``LinkResult.skipped``)."""
        return self._entries[unknown_id].get("skipped")

    # -- persistence ----------------------------------------------------------

    def load(self, salvage: bool = False) -> "CheckpointStore":
        """Read an existing checkpoint file into memory.

        Raises :class:`~repro.errors.CheckpointError` on a missing
        file, a bad header, or a fingerprint mismatch.  By default a
        torn trailing line (possible only if the file was produced by
        something other than this class's atomic writer — e.g. a crash
        mid-append on a copied file) is rejected too; with *salvage*
        set, a corrupt **final** entry is quarantined to a
        ``<name>.quarantined`` sidecar and the complete records before
        it are kept, so ``--resume`` recovers everything that was
        durably written.  Corruption anywhere *before* the tail still
        raises — mid-file damage means the file cannot be trusted.

        An entry written by the removed degraded mode (a ``degraded``
        match or a ``deadline`` quarantine) raises even with
        *salvage*: a full run would link that unknown.
        """
        if not self.path.exists():
            raise CheckpointError(f"{self.path}: no such checkpoint")
        try:
            lines = self.path.read_text(
                encoding="utf-8").splitlines()
        except OSError as exc:
            raise CheckpointError(
                f"{self.path}: unreadable checkpoint: {exc}") from exc
        if not lines:
            raise CheckpointError(f"{self.path}: empty checkpoint file")
        header = self._parse_header(lines[0])
        stored = header.get("fingerprint")
        if self.fingerprint is not None and stored is not None \
                and stored != self.fingerprint:
            raise CheckpointError(
                f"{self.path}: checkpoint was written by a different "
                f"run configuration ({stored} != {self.fingerprint})")
        last_lineno = max(
            (lineno for lineno, line in enumerate(lines[1:], start=2)
             if line.strip()), default=None)
        entries: Dict[str, Dict[str, Any]] = {}
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            reason = None
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                reason = "corrupt checkpoint entry"
                entry = None
            if reason is None and (not isinstance(entry, dict)
                                   or "unknown_id" not in entry):
                reason = "malformed checkpoint entry"
            if reason is not None:
                if salvage and lineno == last_lineno:
                    self._quarantine_line(lineno, line, reason)
                    break
                raise CheckpointError(
                    f"{self.path}:{lineno}: {reason}")
            if _degraded_entry(entry):
                raise CheckpointError(
                    f"{self.path}:{lineno}: {entry['unknown_id']} was "
                    f"answered in degraded mode, which linking no "
                    f"longer has; rerun without --resume")
            entries[str(entry["unknown_id"])] = entry
        self._entries = entries
        _RESUMED.inc(len(entries))
        return self

    def _quarantine_line(self, lineno: int, line: str,
                         reason: str) -> None:
        """Preserve a torn tail line to a sidecar for later audit."""
        sidecar = self.path.with_name(self.path.name + ".quarantined")
        with open(sidecar, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        _SALVAGED.inc()
        log.warning("checkpoint.salvage", path=str(self.path),
                    line=lineno, reason=reason, sidecar=str(sidecar))

    def _parse_header(self, line: str) -> Dict[str, Any]:
        try:
            header = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"{self.path}: corrupt checkpoint header") from exc
        if not isinstance(header, dict) or \
                header.get("kind") != "link-checkpoint":
            raise CheckpointError(
                f"{self.path}: not a link checkpoint file")
        schema = header.get("schema")
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"{self.path}: unsupported checkpoint schema "
                f"{schema!r} (expected {CHECKPOINT_SCHEMA})")
        return header

    def record(self, unknown_id: str, matches: Iterable["Match"],
               scores: Iterable[Tuple[str, float]],
               skipped: Optional[Dict[str, Any]] = None) -> None:
        """Persist the finished *unknown_id* (atomic on disk).

        Quarantined unknowns are recorded too (with *skipped* set and
        empty matches), so a resumed run does not re-attempt a document
        the interrupted run already found malformed.

        The in-memory entry is the JSON round-trip of what was written,
        so results assembled from a live store and results assembled
        after :meth:`load` are indistinguishable.
        """
        entry = _roundtrip({
            "unknown_id": unknown_id,
            "matches": [m.to_dict() for m in matches],
            "scores": [[cid, score] for cid, score in scores],
            "skipped": skipped,
        })
        self._entries[str(unknown_id)] = entry
        self.flush()

    def flush(self) -> None:
        """Rewrite the checkpoint file atomically (temp + replace)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = {"kind": "link-checkpoint",
                  "schema": CHECKPOINT_SCHEMA,
                  "fingerprint": self.fingerprint,
                  "n_entries": len(self._entries)}
        temp = self.path.with_name(self.path.name + ".tmp")
        with open(temp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, ensure_ascii=False) + "\n")
            for entry in self._entries.values():
                fh.write(json.dumps(entry, ensure_ascii=False) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, self.path)
        _WRITES.inc()

    def discard(self) -> None:
        """Delete the checkpoint file (e.g. after a completed run)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        self._entries = {}


def open_store(path: Optional[PathLike],
               fingerprint: Optional[Dict[str, Any]] = None,
               resume: bool = False) -> Optional[CheckpointStore]:
    """The linkers' entry point: ``None`` path → no checkpointing;
    otherwise a store, pre-loaded when *resume* is set and the file
    exists (a missing file on resume just starts fresh).  Resume loads
    salvage a torn trailing entry (see :meth:`CheckpointStore.load`)
    instead of refusing the whole file."""
    if path is None:
        return None
    store = CheckpointStore(path, fingerprint=fingerprint)
    if resume and store.path.exists():
        store.load(salvage=True)
    return store
