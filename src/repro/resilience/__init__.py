"""repro.resilience — fault tolerance for long-running linking runs.

The paper's environment (scraped hidden services, multi-hour batch
attribution over messy data) fails constantly; this package gives every
layer one shared vocabulary for surviving it:

* :mod:`repro.resilience.policy` — :class:`RetryPolicy`: exponential
  backoff with deterministic jitter, attempt caps, and a total-deadline
  budget (used by the scraper, storage I/O, snapshots and checkpoints);
* :mod:`repro.resilience.faults` — :class:`FaultPlan`: seeded,
  reproducible injection of transient failures, record corruption,
  clock skew, and filesystem faults — torn writes, ``ENOSPC``, bit
  flips on read (``REPRO_FAULT_SEED`` / ``REPRO_FAULT_RATE`` /
  ``REPRO_FAULT_KINDS`` activate it process-wide, which is how the CI
  chaos job runs);
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

from repro.resilience.checkpoint import CHECKPOINT_SCHEMA, CheckpointStore
from repro.resilience.faults import (
    DEFAULT_FAULT_RATE,
    FAULT_KINDS,
    FAULT_KINDS_ENV,
    FAULT_RATE_ENV,
    FAULT_SEED_ENV,
    FaultPlan,
    get_fault_plan,
    guarded_call,
    install_fault_plan,
    plan_from_env,
)
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
    "DEFAULT_FAULT_RATE",
    "DEFAULT_RETRYABLE",
    "FAULT_KINDS",
    "FAULT_KINDS_ENV",
    "FAULT_RATE_ENV",
    "FAULT_SEED_ENV",
    "FaultPlan",
    "NO_RETRY",
    "RetryPolicy",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SectionStatus",
    "SnapshotReport",
    "get_fault_plan",
    "guarded_call",
    "install_fault_plan",
    "load_index",
    "plan_from_env",
    "salvage_index",
    "save_index",
    "snapshot_info",
    "verify_index",
]
