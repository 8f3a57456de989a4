"""repro.resilience — fault tolerance for long-running linking runs.

The paper's environment (scraped hidden services, multi-hour batch
attribution over messy data) fails constantly; this package gives every
layer one shared vocabulary for surviving it:

* :mod:`repro.resilience.policy` — :class:`RetryPolicy`: exponential
  backoff with deterministic jitter, attempt caps, and a total-deadline
  budget (used by the scraper, where collection over Tor fails
  transiently);
* :mod:`repro.resilience.atomic` — :func:`atomic_write`: the one
  temp + fsync + rename writer behind forum files, checkpoints and
  snapshots, so a crash never leaves a torn file under its name;
* :mod:`repro.resilience.checkpoint` — :class:`CheckpointStore`:
  atomic per-unknown checkpoints that make
  :class:`~repro.core.batch.BatchedLinker` runs resumable with output
  identical to an uninterrupted run;
* :mod:`repro.resilience.snapshot` — crash-safe persistent index
  snapshots: :func:`save_index` / :func:`load_index` round-trip a
  fitted linker bit-identically, :func:`verify_index` /
  :func:`salvage_index` audit and recover damaged files.

Semantics and file formats: ``docs/robustness.md``.
"""

from repro.resilience.atomic import atomic_write
from repro.resilience.checkpoint import CHECKPOINT_SCHEMA, CheckpointStore
from repro.resilience.policy import DEFAULT_RETRYABLE, NO_RETRY, RetryPolicy
from repro.resilience.snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    SectionStatus,
    SnapshotReport,
    load_index,
    salvage_index,
    save_index,
    snapshot_info,
    verify_index,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointStore",
    "DEFAULT_RETRYABLE",
    "NO_RETRY",
    "RetryPolicy",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SectionStatus",
    "SnapshotReport",
    "atomic_write",
    "load_index",
    "salvage_index",
    "save_index",
    "snapshot_info",
    "verify_index",
]
