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

**Integrity model.**  Writes go through
:func:`~repro.resilience.atomic.atomic_write` (temp + fsync + rename,
like forum files and checkpoints), so a crash mid-save leaves the
previous snapshot untouched.  The save streams: array checksums are
taken over the arrays in place, then the header and the sections are
written in order, so a save never copies an array.  Loads verify the
magic, version, header checksum, config digest and *every* section
checksum before any byte is used; anything that does not verify
raises a typed :class:`~repro.errors.
SnapshotError` naming the damaged section — a snapshot never produces
silently-wrong scores.  :func:`verify_index` reports per-section
damage without loading, and :func:`salvage_index` recovers every
intact section from a damaged file.

The round-trip contract is bit-identity:
``load(save(fit(world))).link(u)`` equals ``fit(world).link(u)`` for
both linkers (the shared vocabulary is restored in interning order,
which pins n-gram codes and therefore every downstream tie-break).
Cached profiles are derived state: a snapshot whose cache sections
are empty (older builds could write one) loads with an empty cache
and recomputes each profile over the stored vocabulary on first use,
with the same result.
"""

from __future__ import annotations

import hashlib
import json
import mmap as mmap_module
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, BinaryIO, Dict, List, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from repro.config import FeatureBudget
from repro.errors import ConfigurationError, NotFittedError, SnapshotError
from repro.obs.logging import get_logger
from repro.obs.manifest import git_revision
from repro.obs.metrics import counter, gauge
from repro.obs.spans import span
from repro.resilience.atomic import atomic_write

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


def _padding(nbytes: int) -> int:
    """Zero bytes that follow *nbytes* to reach the next alignment."""
    return -nbytes % _ALIGN


def _data_start(header_len: int) -> int:
    """Offset of the first section: the header, 64-byte aligned."""
    end = _HEADER_FIXED + header_len
    return end + _padding(end)


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
    config.
    """
    from repro.core.batch import BatchedLinker
    from repro.core.incremental import IncrementalLinker
    from repro.core.linker import AliasLinker

    if isinstance(linker, IncrementalLinker) \
            or not isinstance(linker, AliasLinker):
        raise ConfigurationError(
            f"cannot snapshot a {type(linker).__name__}; expected "
            f"AliasLinker or BatchedLinker")
    algo = "batched-linker" if isinstance(linker, BatchedLinker) \
        else "alias-linker"
    if linker._known is None:
        raise NotFittedError(
            f"{type(linker).__name__}.fit has not been called")

    config: Dict[str, Any] = {
        "k": linker.k,
        "threshold": linker.threshold,
        "use_activity": linker.use_activity,
        "use_structure": linker.use_structure,
        "weights": _weights_dict(linker.weights),
        "reduction_budget": asdict(linker.reducer.extractor.budget),
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
# Encoding (streamed into the atomic writer)
# ---------------------------------------------------------------------------

def _write_snapshot(handle: BinaryIO, algo: str, config: Dict[str, Any],
                    sections: List[Tuple[str, str, Any]]) -> int:
    """Write the on-disk layout of *sections* to *handle*.

    JSON sections are encoded to small blobs; ndarray sections are
    hashed and written through a byte view of the array itself, never
    copied.  Returns the number of bytes written.
    """
    table: List[Dict[str, Any]] = []
    payloads: List[Any] = []
    offset = 0
    for name, kind, payload in sections:
        dtype: Optional[str] = None
        shape: Optional[List[int]] = None
        if kind == "json":
            blob: Any = json.dumps(payload, sort_keys=True,
                                   separators=(",", ":")).encode("utf-8")
        else:
            array = np.ascontiguousarray(payload)
            blob = memoryview(array).cast("B")
            dtype = array.dtype.str
            shape = [int(n) for n in array.shape]
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
        offset += len(blob) + _padding(len(blob))
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
    handle.write(SNAPSHOT_MAGIC)
    handle.write(len(header_blob).to_bytes(8, "little"))
    handle.write(hashlib.sha256(header_blob).digest())
    handle.write(header_blob)
    handle.write(bytes(_padding(_HEADER_FIXED + len(header_blob))))
    for blob in payloads:
        handle.write(blob)
        handle.write(bytes(_padding(len(blob))))
    return _data_start(len(header_blob)) + offset


def save_index(linker: Any, path: Union[str, Path]) -> Dict[str, Any]:
    """Snapshot a fitted linker to *path*, atomically.

    Returns a summary dict (path, bytes, algo, section count, config
    digest).  A failed write (a full disk, say) raises ``OSError`` and
    leaves any previous file at *path* intact.
    """
    path = Path(path)
    with span("snapshot.save", path=str(path)):
        algo, config, sections = _collect_state(linker)
        with atomic_write(path) as handle:
            nbytes = _write_snapshot(handle, algo, config, sections)
    _SAVED.inc()
    _BYTES.set(nbytes)
    info = {"path": str(path), "bytes": nbytes, "algo": algo,
            "n_known": config["n_known"],
            "sections": len(sections),
            "config_digest": _config_digest(config)[:12]}
    log.info("snapshot.save", **info)
    return info


# ---------------------------------------------------------------------------
# Reading / verification
# ---------------------------------------------------------------------------

def _read_buffer(path: Path, use_mmap: bool) -> Any:
    """The snapshot's bytes: mmap when allowed, else a private copy."""
    try:
        with open(path, "rb") as handle:
            if not use_mmap:
                return handle.read()
            if os.fstat(handle.fileno()).st_size == 0:
                return b""
            return mmap_module.mmap(handle.fileno(), 0,
                                    access=mmap_module.ACCESS_READ)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") \
            from exc


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
    header["_data_start"] = _data_start(header_len)
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


def _verify(path: Path, use_mmap: bool = False,
            ) -> Tuple[SnapshotReport, Any, Dict[str, Any]]:
    """Read *path* once and check its header and every section."""
    buffer = _read_buffer(path, use_mmap)
    header = _parse_header(path, buffer)
    statuses = [_check_section(buffer, header, entry)
                for entry in header.get("sections", [])]
    report = SnapshotReport(path=str(path),
                            format_version=header["format_version"],
                            algo=header.get("algo", "?"),
                            sections=statuses)
    return report, buffer, header


def verify_index(path: Union[str, Path]) -> SnapshotReport:
    """Check every section checksum of the snapshot at *path*.

    Returns a :class:`SnapshotReport`; raises :class:`~repro.errors.
    SnapshotError` only when the header itself cannot be read (no
    section table to report against).
    """
    path = Path(path)
    with span("snapshot.verify", path=str(path)):
        report, _, _ = _verify(path)
    damaged = report.damaged()
    if damaged:
        _DAMAGED.inc(len(damaged))
        log.warning("snapshot.damaged", path=str(path),
                    sections=",".join(damaged))
    return report


def snapshot_info(path: Union[str, Path]) -> Dict[str, Any]:
    """The snapshot's manifest header.

    Reads only the fixed prefix and the header JSON, never a section
    payload; ``file_bytes`` is the file's size on disk.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            file_bytes = os.fstat(handle.fileno()).st_size
            prefix = handle.read(_HEADER_FIXED)
            header_len = int.from_bytes(prefix[8:16], "little")
            # A damaged length field cannot ask for more than the file
            # holds; _parse_header reports the header as truncated.
            prefix += handle.read(
                min(header_len, max(file_bytes - len(prefix), 0)))
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") \
            from exc
    header = _parse_header(path, prefix)
    data_start = header.pop("_data_start")
    sections = header.get("sections", [])
    payload_end = max(
        (data_start + s["offset"] + s["nbytes"] for s in sections),
        default=data_start)
    header["file_bytes"] = file_bytes
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
        report, buffer, header = _verify(path)
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

def _rebuild_cache(sections: Dict[str, Any]) -> Any:
    from repro.core.ngrams import WordVocab
    from repro.perf.cache import ProfileCache

    vocab = WordVocab()
    for word in sections["vocab"]:
        vocab.intern(word)
    cache = ProfileCache(vocab=vocab)
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
    if "cache.structure.data" in sections and "structure" in index:
        state["structure"] = {
            "keys": index["structure"]["keys"],
            "data": sections["cache.structure.data"],
            "indptr": sections["cache.structure.indptr"]}
    cache.import_state(state)
    return cache


def _rebuild_linker(header: Dict[str, Any],
                    sections: Dict[str, Any]) -> Any:
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
    profile_cache = _rebuild_cache(sections)
    weights = FeatureWeights(**config["weights"])
    reduction_budget = FeatureBudget(**config["reduction_budget"])
    final_budget = FeatureBudget(**config["final_budget"])

    batched = algo == "batched-linker"
    cls = BatchedLinker if batched else AliasLinker
    variant = {"batch_size": config["batch_size"]} if batched \
        else {"use_reduction": config["use_reduction"]}
    linker = cls(
        k=config["k"],
        threshold=config["threshold"],
        reduction_budget=reduction_budget,
        final_budget=final_budget,
        weights=weights,
        use_activity=config["use_activity"],
        use_structure=config.get("use_structure", False),
        cache=profile_cache,
        **variant,
    )
    if batched:
        linker._known = documents
        return linker
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


def load_index(path: Union[str, Path], mmap: bool = True) -> Any:
    """Load a verified snapshot into a ready-to-link linker.

    Every section checksum, the header checksum, the format version
    and the config digest are verified *before* any state is rebuilt;
    damage raises :class:`~repro.errors.SnapshotError` naming the
    first damaged section.  With *mmap* (default, plain loads only)
    the numpy sections stay memory-mapped views of the file.
    """
    path = Path(path)
    with span("snapshot.load", path=str(path)):
        report, buffer, header = _verify(path, use_mmap=mmap)
        if not report.ok:
            damaged = report.damaged()
            first = next(s for s in report.sections if not s.ok)
            _DAMAGED.inc()
            raise SnapshotError(
                f"{path}: {len(damaged)} damaged section(s): "
                f"{', '.join(damaged)} — first failure: {first.error}",
                section=first.name)
        sections = {
            entry["name"]: _parse_section(buffer, header, entry)
            for entry in header["sections"]
        }
        linker = _rebuild_linker(header, sections)
    _LOADED.inc()
    log.info("snapshot.load", path=str(path), algo=header["algo"],
             n_known=header["config"]["n_known"],
             git_rev=header.get("git_rev") or "-")
    return linker
