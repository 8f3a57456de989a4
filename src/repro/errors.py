"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while
still being able to discriminate precise failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied.

    Raised eagerly at construction time (e.g. a negative n-gram order, a
    ``k`` of zero for k-attribution, an empty feature budget) so that
    misconfigurations fail before any expensive computation starts.
    """


class InsufficientDataError(ReproError):
    """A user or dataset does not meet the minimum data requirements.

    The paper requires at least 30 usable timestamps to build a daily
    activity profile and at least 1,500 words of polished text per alias
    (Section IV-D).  Operations that cannot proceed below these floors
    raise this error instead of silently producing unreliable profiles.
    """


class DatasetError(ReproError):
    """A dataset file or in-memory dataset is malformed or inconsistent."""


class ScrapeError(ReproError):
    """The simulated scraper could not complete a collection run."""


class ResilienceError(ReproError):
    """Base class for fault-tolerance failures (retries, checkpoints).

    The resilience layer (:mod:`repro.resilience`) distinguishes
    *transient* conditions, which a :class:`~repro.resilience.policy.
    RetryPolicy` may retry, from *terminal* ones, which abort.  This
    branch of the hierarchy covers the terminal ones.
    """


class TransientError(ResilienceError):
    """A failure that is expected to succeed when retried.

    Raised by the simulated scraper's flaky hidden services; retry
    policies treat it (and any exception type registered as retryable)
    as a signal to back off and try again rather than to abort.
    """


class RetryExhaustedError(ResilienceError):
    """Every permitted retry attempt failed (or the deadline passed).

    Attributes
    ----------
    attempts:
        Number of attempts actually made.
    backoff_seconds:
        Total backoff time consumed between attempts.
    last_error:
        The exception raised by the final attempt, also chained as
        ``__cause__``.
    """

    def __init__(self, message: str, attempts: int = 0,
                 backoff_seconds: float = 0.0,
                 last_error: Exception | None = None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.backoff_seconds = backoff_seconds
        self.last_error = last_error


class CheckpointError(ResilienceError):
    """A checkpoint file is missing, corrupt, or inconsistent with the
    run attempting to resume from it."""


class SnapshotError(ResilienceError):
    """An index snapshot is missing, damaged, or incompatible.

    Raised instead of ever returning silently-wrong scores: a snapshot
    whose header, version, config digest or any section checksum does
    not verify refuses to load.

    Attributes
    ----------
    section:
        Name of the damaged section when one specific section failed
        verification, else ``None`` (e.g. a bad header).
    """

    def __init__(self, message: str,
                 section: str | None = None) -> None:
        super().__init__(message)
        self.section = section


class NotFittedError(ReproError):
    """A model-like object was used before being fitted.

    Mirrors the scikit-learn convention: vectorizers and linkers must be
    fitted on a corpus of known aliases before they can score unknowns.
    """


class LanguageDetectionError(ReproError):
    """The language detector could not produce a usable verdict."""
