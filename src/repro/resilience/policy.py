"""Reusable retry policies: exponential backoff with deterministic
jitter, attempt caps, and a total-deadline budget.

The paper's collection ran against hidden services over Tor, where
transient failures are the norm, not the exception.  The simulated
scraper, the one stage that talks to that flaky medium, retries
through this policy instead of growing its own ad-hoc loop::

    policy = RetryPolicy(max_retries=5, base_delay=0.5)
    result = policy.call(flaky_fn, arg1, arg2)

Local storage does not retry: its writes are atomic (see
:mod:`repro.resilience.atomic`) and a failed one surfaces at once.

Determinism is a design requirement — a re-run scrape must back off
exactly as before — so jitter is *derived*, not sampled: attempt
``i`` of a policy with ``jitter=0.25`` perturbs the exponential delay
by a fixed fraction computed from ``(seed, attempt)`` via a hash.  Two
runs with the same seed back off identically.

Time is injected.  ``sleep``/``clock`` default to the real
:func:`time.sleep`/:func:`time.monotonic`, but the simulated scraper
passes its virtual clock, and tests pass accumulators, so no test ever
actually sleeps.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Tuple, Type

from repro.errors import (
    ConfigurationError,
    RetryExhaustedError,
    TransientError,
)
from repro.obs.metrics import counter, histogram

#: Retry attempts performed across all policies (first tries excluded).
_RETRIES = counter("retry_attempts_total")
#: Calls that exhausted every attempt (or their deadline).
_EXHAUSTED = counter("retry_exhausted_total")
#: Backoff seconds consumed between attempts.
_BACKOFF = histogram("retry_backoff_seconds",
                     buckets=(0.1, 0.5, 1, 2, 5, 10, 30, 60, 300))

#: Exception types retried by default.
DEFAULT_RETRYABLE: Tuple[Type[BaseException], ...] = (
    TransientError, ConnectionError, TimeoutError,
)


def _jitter_fraction(seed: int, attempt: int) -> float:
    """A deterministic pseudo-random fraction in [0, 1) for *attempt*.

    Hash-derived rather than drawn from an RNG so the fraction depends
    only on ``(seed, attempt)`` — resuming a run or re-entering a
    policy never shifts the sequence.
    """
    digest = hashlib.blake2b(f"{seed}:{attempt}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2 ** 64


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and a deadline.

    Parameters
    ----------
    max_retries:
        Retries after the first attempt (total attempts is
        ``max_retries + 1``).
    base_delay:
        Backoff before the first retry, in seconds.
    multiplier:
        Growth factor between consecutive backoffs.
    max_delay:
        Per-backoff ceiling, in seconds.
    deadline:
        Total budget in seconds measured on ``clock`` from the first
        attempt; backoffs are clamped to the remaining budget (the
        final sleep may land exactly on the deadline, never past it)
        and once the budget is spent no further attempt is made even
        if retries remain.  ``None`` means unbounded.
    jitter:
        Fraction of each delay perturbed deterministically: a delay
        ``d`` becomes ``d * (1 - jitter + 2 * jitter * u)`` with ``u``
        derived from ``(seed, attempt)``.  ``0.0`` disables jitter.
    seed:
        Seed of the jitter derivation.
    retryable:
        Exception types worth retrying; anything else propagates
        immediately.
    """

    max_retries: int = 3
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 60.0
    deadline: Optional[float] = None
    jitter: float = 0.0
    seed: int = 0
    retryable: Tuple[Type[BaseException], ...] = DEFAULT_RETRYABLE

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay < 0:
            raise ConfigurationError(
                f"base_delay must be >= 0, got {self.base_delay}")
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError(
                f"deadline must be positive, got {self.deadline}")

    # -- schedule -------------------------------------------------------------

    def delay(self, attempt: int) -> float:
        """Backoff after failed attempt *attempt* (0-based)."""
        raw = min(self.max_delay,
                  self.base_delay * self.multiplier ** attempt)
        if self.jitter:
            u = _jitter_fraction(self.seed, attempt)
            raw *= 1.0 - self.jitter + 2.0 * self.jitter * u
        return raw

    def delays(self) -> Iterator[float]:
        """The full backoff schedule (``max_retries`` entries)."""
        for attempt in range(self.max_retries):
            yield self.delay(attempt)

    def total_backoff(self) -> float:
        """Worst-case backoff if every attempt fails."""
        return sum(self.delays())

    # -- execution ------------------------------------------------------------

    def call(self, fn: Callable[..., Any], *args: Any,
             sleep: Optional[Callable[[float], None]] = None,
             clock: Optional[Callable[[], float]] = None,
             on_retry: Optional[Callable[[int, BaseException], None]]
             = None,
             **kwargs: Any) -> Any:
        """Invoke ``fn(*args, **kwargs)`` under this policy.

        Retries exceptions listed in :attr:`retryable`; every other
        exception propagates untouched.  When attempts (or the
        deadline) run out, raises
        :class:`~repro.errors.RetryExhaustedError` carrying the attempt
        count, the backoff consumed, and the last error as its cause.

        Parameters
        ----------
        sleep / clock:
            Time injection points; defaults are the real
            :func:`time.sleep` / :func:`time.monotonic`.
        on_retry:
            Called as ``on_retry(attempt, error)`` before each backoff.
        """
        sleep = time.sleep if sleep is None else sleep
        clock = time.monotonic if clock is None else clock
        start = clock()
        backoff_total = 0.0
        attempts = 0
        last_error: Optional[BaseException] = None
        for attempt in range(self.max_retries + 1):
            attempts += 1
            try:
                return fn(*args, **kwargs)
            except self.retryable as exc:
                last_error = exc
                if attempt >= self.max_retries:
                    break
                pause = self.delay(attempt)
                if self.deadline is not None:
                    # Clamp the backoff to the remaining budget: the
                    # final sleep may land exactly on the deadline but
                    # never overshoots it.
                    remaining = self.deadline - (clock() - start)
                    if remaining <= 0:
                        break
                    pause = min(pause, remaining)
                if on_retry is not None:
                    on_retry(attempt, exc)
                _RETRIES.inc()
                _BACKOFF.observe(pause)
                backoff_total += pause
                sleep(pause)
        _EXHAUSTED.inc()
        raise RetryExhaustedError(
            f"giving up after {attempts} attempt(s) and "
            f"{backoff_total:.2f}s of backoff: {last_error}",
            attempts=attempts,
            backoff_seconds=backoff_total,
            last_error=last_error,  # type: ignore[arg-type]
        ) from last_error

    def wrap(self, fn: Callable[..., Any], **call_kwargs: Any,
             ) -> Callable[..., Any]:
        """Return ``fn`` bound to this policy (a retrying callable)."""
        def retrying(*args: Any, **kwargs: Any) -> Any:
            return self.call(fn, *args, **call_kwargs, **kwargs)
        retrying.__name__ = getattr(fn, "__name__", "retrying")
        return retrying


#: A policy that never retries — composing code can use it as a
#: neutral element instead of special-casing "no policy".
NO_RETRY = RetryPolicy(max_retries=0, base_delay=0.0)
