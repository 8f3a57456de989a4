"""Crash-safe persistent index snapshots ("fit once, serve forever").

A production linking service cannot afford to refit the known-alias
index on every process start — and it *really* cannot afford to serve
scores from a half-written or bit-rotted index file.  This module
serializes a fitted :class:`~repro.core.linker.AliasLinker` or
:class:`~repro.core.batch.BatchedLinker` — documents, shared
:class:`~repro.core.ngrams.WordVocab`, warm
:class:`~repro.perf.cache.ProfileCache` profiles, and (for the alias
linker) the fitted reduction feature space and known-corpus matrix —
into one versioned snapshot file with an integrity manifest.  Saved
arrays load as zero-copy (mmap-backed) views, so a service restart
skips the fit entirely.

Files written by older builds may carry the posting sections of the
removed inverted-index stage 1 and a ``config["stage1"]`` entry.  They
still verify (every section is checksummed) and load; the posting
sections were derived state and are ignored.

**Format** (all integers little-endian)::

    [0:8)    magic ``b"RPROSNP1"``
    [8:16)   uint64 header length
    [16:48)  sha256 of the header JSON
    [48:..)  header JSON
    ...      64-byte-aligned raw section payloads

The header carries the format version, the linker's semantic config
and its sha256 digest, the git revision (via ``obs.manifest``), and a
section table — ``{name, kind, offset, nbytes, sha256, dtype, shape}``
per section.  Numpy sections are raw C-order buffers, so a verified
load can hand them to consumers as zero-copy (optionally mmap-backed)
views.

**Integrity model.**  Writes are atomic (temp + fsync + rename, the
same discipline as :class:`~repro.resilience.checkpoint.
CheckpointStore`), so a crash mid-save leaves the previous snapshot
untouched.  Loads verify the magic, version, header checksum, config
digest and *every* section checksum before any byte is used; anything
that does not verify raises a typed :class:`~repro.errors.
SnapshotError` naming the damaged section — a snapshot never produces
silently-wrong scores.  :func:`verify_index` reports per-section
damage without loading, and :func:`salvage_index` recovers every
intact section from a damaged file.

**Chaos.**  The save/read paths are instrumented with the filesystem
fault kinds of :class:`~repro.resilience.faults.FaultPlan` (torn
write, ENOSPC, read-side bit flips) and retry under the active plan's
policy, so the CI chaos job exercises exactly the failure modes the
format exists to survive.

The round-trip contract is bit-identity:
``load(save(fit(world))).link(u)`` equals ``fit(world).link(u)`` for
both linkers at any worker count, block size or cache setting (the
shared vocabulary is restored in interning order, which pins n-gram
codes and therefore every downstream tie-break).
"""

from __future__ import annotations

import errno
import hashlib
import json
import mmap as mmap_module
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro.config import FeatureBudget
from repro.errors import (
    ConfigurationError,
    NotFittedError,
    RetryExhaustedError,
    SnapshotError,
)
from repro.obs.logging import get_logger
from repro.obs.manifest import git_revision
from repro.obs.metrics import counter, gauge
from repro.obs.spans import span
from repro.resilience.faults import GUARD_POLICY_DELAYS, get_fault_plan

log = get_logger(__name__)

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SectionStatus",
    "SnapshotReport",
    "load_index",
    "salvage_index",
    "save_index",
    "snapshot_info",
    "verify_index",
]

#: File magic: format name + major layout revision.
SNAPSHOT_MAGIC = b"RPROSNP1"
#: Header schema version; loaders refuse anything newer.
SNAPSHOT_VERSION = 1

_HEADER_FIXED = 48  # magic + uint64 length + header sha256
_ALIGN = 64

#: Snapshots written (post-rename, i.e. durable).
_SAVED = counter("snapshots_saved_total")
#: Snapshots loaded with every checksum verified.
_LOADED = counter("snapshots_loaded_total")
#: Sections that failed verification (truncated or corrupt).
_DAMAGED = counter("snapshot_sections_damaged_total")
#: Size of the most recently written snapshot.
_BYTES = gauge("snapshot_bytes")


@dataclass(frozen=True)
class SectionStatus:
    """Verification verdict for one snapshot section."""

    name: str
    kind: str
    nbytes: int
    ok: bool
    error: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "kind": self.kind,
                "nbytes": self.nbytes, "ok": self.ok,
                "error": self.error}


@dataclass(frozen=True)
class SnapshotReport:
    """What :func:`verify_index` found out about a snapshot file."""

    path: str
    format_version: int
    algo: str
    sections: List[SectionStatus]

    @property
    def ok(self) -> bool:
        """Whether every section verified."""
        return all(section.ok for section in self.sections)

    def damaged(self) -> List[str]:
        """Names of the sections that failed verification."""
        return [s.name for s in self.sections if not s.ok]

    def to_dict(self) -> Dict[str, Any]:
        return {"path": self.path,
                "format_version": self.format_version,
                "algo": self.algo,
                "ok": self.ok,
                "damaged": self.damaged(),
                "sections": [s.to_dict() for s in self.sections]}


# ---------------------------------------------------------------------------
# State collection (linker -> sections)
# ---------------------------------------------------------------------------

def _document_record(document: Any) -> Dict[str, Any]:
    activity = document.activity
    structure = getattr(document, "structure", None)
    record = {
        "doc_id": document.doc_id,
        "alias": document.alias,
        "forum": document.forum,
        "text": document.text,
        "words": list(document.words),
        "timestamps": [int(t) for t in document.timestamps],
        "activity": None if activity is None
        else np.asarray(activity, dtype=np.float64).tolist(),
        "metadata": dict(document.metadata),
    }
    # Emitted only when present, so structure-free snapshots stay
    # byte-identical to the pre-structure format.
    if structure is not None:
        record["structure"] = np.asarray(
            structure, dtype=np.float64).tolist()
    return record


def _restore_document(record: Dict[str, Any]) -> Any:
    from repro.core.documents import AliasDocument

    activity = record.get("activity")
    structure = record.get("structure")
    return AliasDocument(
        doc_id=str(record["doc_id"]),
        alias=str(record["alias"]),
        forum=str(record["forum"]),
        text=str(record["text"]),
        words=tuple(record["words"]),
        timestamps=tuple(int(t) for t in record["timestamps"]),
        activity=None if activity is None
        else np.asarray(activity, dtype=np.float64),
        metadata=dict(record.get("metadata", {})),
        structure=None if structure is None
        else np.asarray(structure, dtype=np.float64),
    )


def _weights_dict(weights: Any) -> Dict[str, float]:
    return {"text": weights.text,
            "frequencies": weights.frequencies,
            "activity": weights.activity,
            "structure": weights.structure}


def _config_digest(config: Dict[str, Any]) -> str:
    canonical = json.dumps(config, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _collect_state(linker: Any) -> Tuple[str, Dict[str, Any],
                                         List[Tuple[str, str, Any]]]:
    """Break a fitted linker into ``(algo, config, sections)``.

    Sections are ``(name, kind, payload)`` with kind ``"json"``
    (payload is any JSON-serializable object) or ``"ndarray"``
    (payload is a numpy array).  Only *semantic* knobs enter the
    config — perf knobs (workers, block size, cache policy) are
    load-time choices because they never change the numbers.
    """
    from repro.core.batch import BatchedLinker
    from repro.core.linker import AliasLinker

    if isinstance(linker, AliasLinker):
        algo = "alias-linker"
        reduction_budget = linker.reducer.extractor.budget
    elif isinstance(linker, BatchedLinker):
        algo = "batched-linker"
        reduction_budget = linker.reduction_budget
    else:
        raise ConfigurationError(
            f"cannot snapshot a {type(linker).__name__}; expected "
            f"AliasLinker or BatchedLinker")
    if linker._known is None:
        raise NotFittedError(
            f"{type(linker).__name__}.fit has not been called")

    config: Dict[str, Any] = {
        "k": linker.k,
        "threshold": linker.threshold,
        "use_activity": linker.use_activity,
        "use_structure": linker.use_structure,
        "weights": _weights_dict(linker.weights),
        "reduction_budget": asdict(reduction_budget),
        "final_budget": asdict(linker.final_budget),
        "n_known": len(linker._known),
    }
    if algo == "alias-linker":
        config["use_reduction"] = linker.use_reduction
    else:
        config["batch_size"] = linker.batch_size

    cache_state = linker.cache.export_state()
    sections: List[Tuple[str, str, Any]] = [
        ("documents", "json",
         [_document_record(d) for d in linker._known]),
        ("vocab", "json", list(linker.cache.vocab._words)),
        ("cache.index", "json", {
            "word": {"keys": cache_state["word"]["keys"]},
            "char": {"keys": cache_state["char"]["keys"]},
            "freq": {"keys": cache_state["freq"]["keys"]},
            "activity": {"keys": cache_state["activity"]["keys"]},
            "structure": {"keys": cache_state["structure"]["keys"]},
        }),
    ]
    for family in ("word", "char"):
        for part in ("codes", "counts", "indptr"):
            sections.append((f"cache.{family}.{part}", "ndarray",
                             cache_state[family][part]))
    for family in ("freq", "activity", "structure"):
        for part in ("data", "indptr"):
            sections.append((f"cache.{family}.{part}", "ndarray",
                             cache_state[family][part]))

    if algo == "alias-linker":
        extractor = linker.reducer.extractor
        if not extractor.is_fitted \
                or linker.reducer._known_matrix is None:
            raise NotFittedError(
                "AliasLinker reducer is not fitted; cannot snapshot")
        matrix = linker.reducer._known_matrix
        sections.extend([
            ("reduction.meta", "json",
             {"shape": [int(matrix.shape[0]), int(matrix.shape[1])]}),
            ("reduction.selected_words", "ndarray",
             extractor._selected_words),
            ("reduction.selected_chars", "ndarray",
             extractor._selected_chars),
            ("reduction.idf", "ndarray", extractor._tfidf._idf),
            ("reduction.matrix.data", "ndarray", matrix.data),
            ("reduction.matrix.indices", "ndarray", matrix.indices),
            ("reduction.matrix.indptr", "ndarray", matrix.indptr),
        ])
    return algo, config, sections


# ---------------------------------------------------------------------------
# Encoding / atomic write
# ---------------------------------------------------------------------------

def _payload_bytes(kind: str, payload: Any,
                   ) -> Tuple[bytes, Optional[str],
                              Optional[List[int]]]:
    if kind == "json":
        return (json.dumps(payload, sort_keys=True,
                           separators=(",", ":")).encode("utf-8"),
                None, None)
    array = np.ascontiguousarray(payload)
    return (array.tobytes(), array.dtype.str,
            [int(n) for n in array.shape])


def _encode_snapshot(algo: str, config: Dict[str, Any],
                     sections: List[Tuple[str, str, Any]]) -> bytes:
    """Serialize sections + header into the on-disk byte layout."""
    table: List[Dict[str, Any]] = []
    payloads: List[bytes] = []
    offset = 0
    for name, kind, payload in sections:
        blob, dtype, shape = _payload_bytes(kind, payload)
        table.append({
            "name": name,
            "kind": kind,
            "offset": offset,
            "nbytes": len(blob),
            "sha256": hashlib.sha256(blob).hexdigest(),
            "dtype": dtype,
            "shape": shape,
        })
        payloads.append(blob)
        offset += -(-len(blob) // _ALIGN) * _ALIGN
    header = {
        "format_version": SNAPSHOT_VERSION,
        "algo": algo,
        "config": config,
        "config_digest": _config_digest(config),
        "git_rev": git_revision(),
        "sections": table,
    }
    header_blob = json.dumps(header, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
    data_start = -(-(_HEADER_FIXED + len(header_blob)) // _ALIGN) \
        * _ALIGN
    out = bytearray(data_start + offset)
    out[0:8] = SNAPSHOT_MAGIC
    out[8:16] = len(header_blob).to_bytes(8, "little")
    out[16:48] = hashlib.sha256(header_blob).digest()
    out[48:48 + len(header_blob)] = header_blob
    for entry, blob in zip(table, payloads):
        start = data_start + entry["offset"]
        out[start:start + len(blob)] = blob
    return bytes(out)


def _write_atomic(path: Path, blob: bytes) -> None:
    """Temp + fsync + rename, with filesystem fault injection.

    An injected torn write truncates the temp file and raises
    ``OSError(EIO)`` — exactly what a mid-write crash leaves behind —
    while the target path stays untouched (the rename never happened).
    """
    plan = get_fault_plan()
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent))
    try:
        if plan is not None:
            plan.fs_check("snapshot.write")
        torn = plan.torn_bytes(blob, "snapshot.write") \
            if plan is not None else None
        with os.fdopen(fd, "wb") as handle:
            fd = None
            handle.write(blob if torn is None else torn)
            handle.flush()
            os.fsync(handle.fileno())
        if torn is not None:
            raise OSError(
                errno.EIO,
                f"injected torn write: {len(torn)}/{len(blob)} bytes")
        os.replace(tmp_name, path)
        tmp_name = None
    finally:
        if fd is not None:
            os.close(fd)
        if tmp_name is not None:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass


def save_index(linker: Any, path: Union[str, Path]) -> Dict[str, Any]:
    """Snapshot a fitted linker to *path*, atomically.

    Returns a summary dict (path, bytes, algo, section count, config
    digest).  Under an active fault plan the write is retried with the
    plan's guard policy, so injected torn writes / ENOSPC exercise the
    retry path while a genuinely full disk still surfaces as
    ``OSError``.
    """
    path = Path(path)
    with span("snapshot.save", path=str(path)):
        algo, config, sections = _collect_state(linker)
        blob = _encode_snapshot(algo, config, sections)
        plan = get_fault_plan()
        if plan is None:
            _write_atomic(path, blob)
        else:
            from repro.resilience.policy import RetryPolicy

            policy = RetryPolicy(seed=plan.seed, retryable=(OSError,),
                                 **GUARD_POLICY_DELAYS)
            try:
                policy.call(_write_atomic, path, blob)
            except RetryExhaustedError as exc:
                raise exc.last_error or exc
    _SAVED.inc()
    _BYTES.set(len(blob))
    info = {"path": str(path), "bytes": len(blob), "algo": algo,
            "n_known": config["n_known"],
            "sections": len(sections),
            "config_digest": _config_digest(config)[:12]}
    log.info("snapshot.save", **info)
    return info


# ---------------------------------------------------------------------------
# Reading / verification
# ---------------------------------------------------------------------------

def _read_buffer(path: Path, use_mmap: bool) -> Any:
    """The snapshot's bytes: mmap when allowed, else a private copy.

    An active fault plan forces the copy path (so read-side bit flips
    hit exactly the bytes that get verified) and applies
    :meth:`~repro.resilience.faults.FaultPlan.corrupt_bytes`.
    """
    plan = get_fault_plan()
    try:
        if plan is None and use_mmap:
            with open(path, "rb") as handle:
                if os.fstat(handle.fileno()).st_size == 0:
                    return b""
                return mmap_module.mmap(handle.fileno(), 0,
                                        access=mmap_module.ACCESS_READ)
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") \
            from exc
    if plan is not None:
        data = plan.corrupt_bytes(data, "snapshot.read")
    return data


def _parse_header(path: Path, buffer: Any) -> Dict[str, Any]:
    """Decode and integrity-check the fixed prefix + header JSON."""
    view = memoryview(buffer)
    if len(view) < _HEADER_FIXED:
        raise SnapshotError(
            f"{path}: file too short for a snapshot header "
            f"({len(view)} bytes)")
    if bytes(view[0:8]) != SNAPSHOT_MAGIC:
        raise SnapshotError(
            f"{path}: bad magic {bytes(view[0:8])!r}; "
            f"not a snapshot file")
    header_len = int.from_bytes(view[8:16], "little")
    if _HEADER_FIXED + header_len > len(view):
        raise SnapshotError(
            f"{path}: header truncated "
            f"(need {header_len} bytes, file ends first)")
    header_blob = bytes(view[_HEADER_FIXED:_HEADER_FIXED + header_len])
    if hashlib.sha256(header_blob).digest() != bytes(view[16:48]):
        raise SnapshotError(f"{path}: header checksum mismatch")
    try:
        header = json.loads(header_blob)
    except ValueError as exc:
        raise SnapshotError(f"{path}: header is not valid JSON") \
            from exc
    version = header.get("format_version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{path}: unsupported snapshot format version {version!r} "
            f"(this build reads version {SNAPSHOT_VERSION})")
    if _config_digest(header.get("config", {})) \
            != header.get("config_digest"):
        raise SnapshotError(f"{path}: config digest mismatch")
    header["_data_start"] = -(-(_HEADER_FIXED + header_len)
                              // _ALIGN) * _ALIGN
    return header


def _section_view(buffer: Any, header: Dict[str, Any],
                  entry: Dict[str, Any]) -> memoryview:
    start = header["_data_start"] + entry["offset"]
    end = start + entry["nbytes"]
    view = memoryview(buffer)
    if end > len(view):
        raise SnapshotError(
            f"section {entry['name']!r} is truncated: needs bytes "
            f"[{start}, {end}) of a {len(view)}-byte file",
            section=entry["name"])
    return view[start:end]


def _check_section(buffer: Any, header: Dict[str, Any],
                   entry: Dict[str, Any]) -> SectionStatus:
    try:
        payload = _section_view(buffer, header, entry)
    except SnapshotError as exc:
        return SectionStatus(name=entry["name"], kind=entry["kind"],
                             nbytes=entry["nbytes"], ok=False,
                             error=str(exc))
    if hashlib.sha256(payload).hexdigest() != entry["sha256"]:
        return SectionStatus(
            name=entry["name"], kind=entry["kind"],
            nbytes=entry["nbytes"], ok=False,
            error=f"checksum mismatch over {entry['nbytes']} bytes")
    return SectionStatus(name=entry["name"], kind=entry["kind"],
                         nbytes=entry["nbytes"], ok=True)


def _parse_section(buffer: Any, header: Dict[str, Any],
                   entry: Dict[str, Any]) -> Any:
    """Decode one verified section (zero-copy for arrays)."""
    payload = _section_view(buffer, header, entry)
    if entry["kind"] == "json":
        try:
            return json.loads(bytes(payload))
        except ValueError as exc:
            raise SnapshotError(
                f"section {entry['name']!r} is not valid JSON",
                section=entry["name"]) from exc
    dtype = np.dtype(entry["dtype"])
    array = np.frombuffer(payload, dtype=dtype)
    return array.reshape(entry["shape"])


def _verify_once(path: Path, use_mmap: bool = False,
                 ) -> Tuple[SnapshotReport, Any, Dict[str, Any]]:
    buffer = _read_buffer(path, use_mmap)
    header = _parse_header(path, buffer)
    statuses = [_check_section(buffer, header, entry)
                for entry in header.get("sections", [])]
    report = SnapshotReport(path=str(path),
                            format_version=header["format_version"],
                            algo=header.get("algo", "?"),
                            sections=statuses)
    return report, buffer, header


def _fault_attempts() -> int:
    """Retries for read paths under an active plan.

    Injected read corruption is per-invocation — a clean retry reads
    clean bytes — while genuine on-disk damage fails every attempt, so
    a handful of retries makes chaos runs deterministic without ever
    masking real corruption.
    """
    return 6 if get_fault_plan() is not None else 1


def verify_index(path: Union[str, Path]) -> SnapshotReport:
    """Check every section checksum of the snapshot at *path*.

    Returns a :class:`SnapshotReport`; raises :class:`~repro.errors.
    SnapshotError` only when the header itself cannot be read (no
    section table to report against).
    """
    path = Path(path)
    with span("snapshot.verify", path=str(path)):
        last_error: Optional[SnapshotError] = None
        report: Optional[SnapshotReport] = None
        for _ in range(_fault_attempts()):
            try:
                report, _, _ = _verify_once(path)
            except SnapshotError as exc:
                last_error = exc
                continue
            if report.ok:
                break
        if report is None:
            assert last_error is not None
            raise last_error
    damaged = report.damaged()
    if damaged:
        _DAMAGED.inc(len(damaged))
        log.warning("snapshot.damaged", path=str(path),
                    sections=",".join(damaged))
    return report


def snapshot_info(path: Union[str, Path]) -> Dict[str, Any]:
    """The snapshot's manifest header (no section payloads touched)."""
    path = Path(path)
    last_error: Optional[SnapshotError] = None
    for _ in range(_fault_attempts()):
        try:
            buffer = _read_buffer(path, use_mmap=False)
            header = _parse_header(path, buffer)
            break
        except SnapshotError as exc:
            last_error = exc
    else:
        assert last_error is not None
        raise last_error
    data_start = header.pop("_data_start")
    sections = header.get("sections", [])
    payload_end = max(
        (data_start + s["offset"] + s["nbytes"] for s in sections),
        default=data_start)
    header["file_bytes"] = len(memoryview(buffer))
    header["expected_bytes"] = payload_end
    header["path"] = str(path)
    return header


def salvage_index(path: Union[str, Path],
                  ) -> Tuple[Dict[str, Any], SnapshotReport]:
    """Recover every intact section from a (possibly damaged) snapshot.

    Returns ``(sections, report)`` where *sections* maps section name
    to its decoded payload (parsed JSON or a numpy array copy) for
    every section whose checksum still verifies.  Raises
    :class:`~repro.errors.SnapshotError` only when the header is
    unreadable — with no section table there is nothing to salvage.
    """
    path = Path(path)
    with span("snapshot.salvage", path=str(path)):
        last_error: Optional[SnapshotError] = None
        outcome = None
        for _ in range(_fault_attempts()):
            try:
                outcome = _verify_once(path)
            except SnapshotError as exc:
                last_error = exc
                continue
            if outcome[0].ok:
                break
        if outcome is None:
            assert last_error is not None
            raise last_error
        report, buffer, header = outcome
        ok_names = {s.name for s in report.sections if s.ok}
        recovered: Dict[str, Any] = {}
        for entry in header.get("sections", []):
            if entry["name"] not in ok_names:
                continue
            payload = _parse_section(buffer, header, entry)
            if isinstance(payload, np.ndarray):
                payload = np.array(payload)  # detach from the buffer
            recovered[entry["name"]] = payload
    log.info("snapshot.salvage", path=str(path),
             recovered=len(recovered),
             damaged=",".join(report.damaged()) or "-")
    return recovered, report


# ---------------------------------------------------------------------------
# Loading (snapshot -> fitted linker)
# ---------------------------------------------------------------------------

def _rebuild_cache(sections: Dict[str, Any], enabled: bool) -> Any:
    from repro.core.ngrams import WordVocab
    from repro.perf.cache import ProfileCache

    vocab = WordVocab()
    for word in sections["vocab"]:
        vocab.intern(word)
    cache = ProfileCache(vocab=vocab, enabled=enabled)
    if enabled:
        index = sections["cache.index"]
        state = {
            "word": {"keys": index["word"]["keys"],
                     "codes": sections["cache.word.codes"],
                     "counts": sections["cache.word.counts"],
                     "indptr": sections["cache.word.indptr"]},
            "char": {"keys": index["char"]["keys"],
                     "codes": sections["cache.char.codes"],
                     "counts": sections["cache.char.counts"],
                     "indptr": sections["cache.char.indptr"]},
            "freq": {"keys": index["freq"]["keys"],
                     "data": sections["cache.freq.data"],
                     "indptr": sections["cache.freq.indptr"]},
            "activity": {"keys": index["activity"]["keys"],
                         "data": sections["cache.activity.data"],
                         "indptr": sections["cache.activity.indptr"]},
        }
        # Snapshots written before the structure family lack these.
        if "cache.structure.data" in sections \
                and "structure" in index:
            state["structure"] = {
                "keys": index["structure"]["keys"],
                "data": sections["cache.structure.data"],
                "indptr": sections["cache.structure.indptr"]}
        cache.import_state(state)
    return cache


def _rebuild_linker(header: Dict[str, Any],
                    sections: Dict[str, Any],
                    workers: Optional[int], cache: bool,
                    block_size: Optional[int]) -> Any:
    from repro.core.batch import BatchedLinker
    from repro.core.features import FeatureWeights
    from repro.core.linker import AliasLinker
    from repro.core.tfidf import TfidfModel

    config = header["config"]
    algo = header["algo"]
    documents = [_restore_document(r) for r in sections["documents"]]
    if len(documents) != config["n_known"]:
        raise SnapshotError(
            f"documents section holds {len(documents)} records, "
            f"config says {config['n_known']}", section="documents")
    profile_cache = _rebuild_cache(sections, enabled=bool(cache))
    weights = FeatureWeights(**config["weights"])
    reduction_budget = FeatureBudget(**config["reduction_budget"])
    final_budget = FeatureBudget(**config["final_budget"])

    if algo == "batched-linker":
        linker = BatchedLinker(
            batch_size=config["batch_size"],
            k=config["k"],
            threshold=config["threshold"],
            reduction_budget=reduction_budget,
            final_budget=final_budget,
            weights=weights,
            use_activity=config["use_activity"],
            use_structure=config.get("use_structure", False),
            workers=workers,
            cache=profile_cache,
            block_size=block_size,
        )
        linker._known = documents
        return linker

    linker = AliasLinker(
        k=config["k"],
        threshold=config["threshold"],
        reduction_budget=reduction_budget,
        final_budget=final_budget,
        weights=weights,
        use_activity=config["use_activity"],
        use_structure=config.get("use_structure", False),
        use_reduction=config["use_reduction"],
        workers=workers,
        cache=profile_cache,
        block_size=block_size,
    )
    linker._known = documents
    reducer = linker.reducer
    reducer._known = documents
    extractor = reducer.extractor
    extractor._selected_words = np.asarray(
        sections["reduction.selected_words"])
    extractor._selected_chars = np.asarray(
        sections["reduction.selected_chars"])
    tfidf = TfidfModel()
    tfidf._idf = np.asarray(sections["reduction.idf"])
    extractor._tfidf = tfidf
    shape = tuple(sections["reduction.meta"]["shape"])
    matrix = sparse.csr_matrix(
        (sections["reduction.matrix.data"],
         sections["reduction.matrix.indices"],
         sections["reduction.matrix.indptr"]),
        shape=shape, copy=False)
    # The saved matrix was canonical CSR; assert so instead of letting
    # scipy try to re-sort read-only (mmap-backed) index arrays.
    matrix.has_sorted_indices = True
    matrix.has_canonical_format = True
    reducer._known_matrix = matrix
    return linker


def load_index(path: Union[str, Path], workers: Optional[int] = None,
               cache: bool = True, block_size: Optional[int] = None,
               mmap: bool = True) -> Any:
    """Load a verified snapshot into a ready-to-link linker.

    Every section checksum, the header checksum, the format version
    and the config digest are verified *before* any state is rebuilt;
    damage raises :class:`~repro.errors.SnapshotError` naming the
    first damaged section.  With *mmap* (default, plain loads only)
    the numpy sections stay memory-mapped views of the file.

    *workers*, *cache* and *block_size* are load-time perf knobs —
    they never change the scores a loaded linker produces.
    """
    path = Path(path)
    with span("snapshot.load", path=str(path)):
        last_error: Optional[SnapshotError] = None
        verified = None
        for _ in range(_fault_attempts()):
            try:
                report, buffer, header = _verify_once(
                    path, use_mmap=mmap)
            except SnapshotError as exc:
                last_error = exc
                continue
            if report.ok:
                verified = (buffer, header)
                break
            damaged = report.damaged()
            first = next(s for s in report.sections if not s.ok)
            last_error = SnapshotError(
                f"{path}: {len(damaged)} damaged section(s): "
                f"{', '.join(damaged)} — first failure: {first.error}",
                section=first.name)
        if verified is None:
            assert last_error is not None
            _DAMAGED.inc()
            raise last_error
        buffer, header = verified
        sections = {
            entry["name"]: _parse_section(buffer, header, entry)
            for entry in header["sections"]
        }
        linker = _rebuild_linker(header, sections, workers=workers,
                                 cache=cache, block_size=block_size)
    _LOADED.inc()
    log.info("snapshot.load", path=str(path), algo=header["algo"],
             n_known=header["config"]["n_known"],
             git_rev=header.get("git_rev") or "-")
    return linker
