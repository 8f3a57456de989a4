"""Run manifests: the provenance record written next to every result.

A trace, a Chrome trace, or a benchmark JSON is only evidence if you
can say *what produced it*.  A manifest pins that down::

    {"manifest_version": 1,
     "command": "link",
     "argv": ["--known", "dm.jsonl", ...],
     "config": {"k": 10, "threshold": 0.419, ...},
     "seed": 7,
     "env": {"REPRO_LOG_LEVEL": "INFO"},     # only the knobs that are set
     "python": "3.12.3", "numpy": "1.26.4",
     "platform": "Linux-6.8...-x86_64",
     "git_rev": "c5cbe09...",                # None outside a checkout
     "inputs": {"known": {"path": ..., "sha256": ..., "bytes": ...}},
     "created_at": "2026-08-07T12:00:00+00:00",
     "elapsed_s": 12.4}

Determinism contract: two runs of the same command with the same seed
on the same checkout produce **identical manifests modulo the timing
fields** (``created_at``, ``elapsed_s``) — asserted by
:func:`manifest_equal` in ``tests/obs/test_manifest.py``.  The CLI
writes ``FILE.manifest.json`` beside every ``--trace`` /
``--trace-chrome`` output, and the benchmark suite embeds a manifest
in every results JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.errors import DatasetError

__all__ = [
    "MANIFEST_VERSION",
    "TIMING_FIELDS",
    "ENV_KNOBS",
    "available_cores",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "manifest_equal",
    "manifest_path_for",
    "file_digest",
    "git_revision",
]

MANIFEST_VERSION = 1

#: Fields that legitimately differ between two otherwise-identical
#: runs; :func:`manifest_equal` ignores them.
TIMING_FIELDS: Tuple[str, ...] = ("created_at", "elapsed_s")

#: Every environment knob the pipeline reads.  Only knobs that are
#: actually set land in the manifest, so an unset environment stays an
#: empty (and therefore comparable) dict.
ENV_KNOBS: Tuple[str, ...] = (
    "REPRO_LOG_LEVEL",
    "REPRO_LOG_FORMAT",
    "REPRO_PROFILE",
    "REPRO_SCALE",
)


def git_revision(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The checkout's HEAD commit hash, or ``None`` when unavailable."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True, text=True, timeout=5, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def file_digest(path: Union[str, Path]) -> Dict[str, Any]:
    """SHA-256 + byte count of one input file (streamed)."""
    path = Path(path)
    digest = hashlib.sha256()
    size = 0
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            size += len(chunk)
    return {"path": str(path), "sha256": digest.hexdigest(),
            "bytes": size}


def _numpy_version() -> Optional[str]:
    try:
        import numpy
        return str(numpy.__version__)
    except Exception:  # pragma: no cover - numpy is a hard dep today
        return None


def available_cores() -> int:
    """CPU cores actually available to this process.

    Prefers ``os.process_cpu_count`` (3.13+), then the scheduling
    affinity mask, then ``os.cpu_count`` — the first is the honest
    answer under cgroup/affinity limits, the rest are fallbacks.
    """
    probe = getattr(os, "process_cpu_count", None)
    if probe is not None:
        cores = probe()
        if cores:
            return cores
    try:
        affinity = os.sched_getaffinity(0)
    except (AttributeError, OSError):
        affinity = None
    if affinity:
        return len(affinity)
    return os.cpu_count() or 1


def build_manifest(command: Optional[str] = None,
                   argv: Optional[Iterable[str]] = None,
                   config: Optional[Mapping[str, Any]] = None,
                   seed: Optional[int] = None,
                   inputs: Optional[Mapping[str, Union[str, Path]]] = None,
                   elapsed_s: Optional[float] = None,
                   extra: Optional[Mapping[str, Any]] = None,
                   ) -> Dict[str, Any]:
    """Assemble a manifest for the current process and *inputs*.

    *inputs* maps a role name (``known``, ``unknown``, ...) to a file
    path; each is digested.  Paths that do not exist are recorded with
    ``sha256: None`` rather than raising — a manifest must never kill
    the run it documents.
    """
    digests: Dict[str, Any] = {}
    for role, path in sorted((inputs or {}).items()):
        try:
            digests[role] = file_digest(path)
        except OSError:
            digests[role] = {"path": str(path), "sha256": None,
                             "bytes": None}
    manifest: Dict[str, Any] = {
        "manifest_version": MANIFEST_VERSION,
        "command": command,
        "argv": list(argv) if argv is not None else None,
        "config": dict(config) if config is not None else None,
        "seed": seed,
        "env": {knob: os.environ[knob] for knob in ENV_KNOBS
                if knob in os.environ},
        # The cores this run could use: a timing means little without
        # the hardware it was measured on.
        "cores": available_cores(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "platform": platform.platform(),
        "executable": sys.executable,
        "git_rev": git_revision(),
        "inputs": digests,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z",
                                    time.localtime()),
    }
    if elapsed_s is not None:
        manifest["elapsed_s"] = round(float(elapsed_s), 3)
    if extra:
        manifest.update(dict(extra))
    return manifest


def manifest_path_for(path: Union[str, Path]) -> Path:
    """The sidecar manifest path for a result file
    (``trace.json`` → ``trace.manifest.json``)."""
    path = Path(path)
    return path.with_name(f"{path.stem}.manifest.json")


def write_manifest(path: Union[str, Path],
                   manifest: Mapping[str, Any]) -> Path:
    """Write *manifest* as pretty JSON to *path*."""
    path = Path(path)
    path.write_text(json.dumps(dict(manifest), indent=2, sort_keys=True,
                               default=str) + "\n", encoding="utf-8")
    return path


def load_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a manifest file, validating the basic shape."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DatasetError(f"manifest file {path} does not exist")
    except json.JSONDecodeError as exc:
        raise DatasetError(
            f"manifest file {path} is not valid JSON: {exc}")
    if not isinstance(document, dict) \
            or "manifest_version" not in document:
        raise DatasetError(
            f"manifest file {path} is missing 'manifest_version'")
    return document


def manifest_equal(a: Mapping[str, Any], b: Mapping[str, Any],
                   ignore: Iterable[str] = TIMING_FIELDS) -> bool:
    """Whether two manifests describe the same run setup.

    Timing fields (and any extra *ignore* keys) are dropped before the
    comparison — the determinism contract for same-seed runs.
    """
    skip = set(ignore)
    trimmed_a = {k: v for k, v in a.items() if k not in skip}
    trimmed_b = {k: v for k, v in b.items() if k not in skip}
    return trimmed_a == trimmed_b
