"""Degraded-mode execution: per-call deadline budgets.

A production linking service must answer *something* when a call runs
long — partial-but-honest beats late-or-dead.  :class:`DeadlineBudget`
carries that policy for the linkers: a per-call wall-clock budget
threaded through the linking stages.  Stages consult it between units
of work; once the budget is spent, the expensive second stage is
skipped and every remaining unknown is answered from the stage-1
candidate scores with an explicit ``degraded`` flag and a reason
(``"stage1_only"``, or ``"stylometry_only"`` when the activity reserve
was hit).  With ``degraded_ok=False`` expiry raises
:class:`~repro.errors.DeadlineExceededError` instead.

The budget takes an injected ``clock`` (default :func:`time.monotonic`)
so tests control time exactly; it never sleeps.  Expiry is observable:
``deadline_expired_total`` counts budgets that ran out, and the
``deadline.expired`` structured-log event records when.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.errors import ConfigurationError, DeadlineExceededError
from repro.obs.logging import get_logger
from repro.obs.metrics import counter

__all__ = ["DeadlineBudget"]

log = get_logger(__name__)

#: Deadline budgets that ran out before their call finished.
_EXPIRED = counter("deadline_expired_total")


class DeadlineBudget:
    """A wall-clock budget for one linking call.

    Parameters
    ----------
    deadline_ms:
        Total budget in milliseconds, measured on *clock* from
        construction time.
    degraded_ok:
        When ``True`` (the default) an expired budget makes the linkers
        return partial-but-honest results (degraded matches, deadline
        quarantines); when ``False``, the first stage boundary that
        observes expiry raises
        :class:`~repro.errors.DeadlineExceededError`.
    activity_reserve_ms:
        Shed the activity feature block early: once the remaining
        budget drops to this value, restages run ``stylometry_only``
        (activity scoring is the first honest cut).  ``0`` (default)
        never sheds early.
    clock:
        Monotonic-seconds source; injected by tests, defaults to
        :func:`time.monotonic`.  The clock is system-wide, so a budget
        created in a parent process stays meaningful across ``fork``.
    """

    def __init__(self, deadline_ms: float, degraded_ok: bool = True,
                 activity_reserve_ms: float = 0.0,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if deadline_ms <= 0:
            raise ConfigurationError(
                f"deadline_ms must be positive, got {deadline_ms}")
        if activity_reserve_ms < 0:
            raise ConfigurationError(
                f"activity_reserve_ms must be >= 0, "
                f"got {activity_reserve_ms}")
        self.deadline_ms = float(deadline_ms)
        self.degraded_ok = bool(degraded_ok)
        self.activity_reserve_ms = float(activity_reserve_ms)
        self._clock = clock if clock is not None else time.monotonic
        self._start = self._clock()
        self._reported = False

    def elapsed_ms(self) -> float:
        """Milliseconds consumed since construction."""
        return (self._clock() - self._start) * 1000.0

    def remaining_ms(self) -> float:
        """Milliseconds left (negative once over budget)."""
        return self.deadline_ms - self.elapsed_ms()

    def expired(self) -> bool:
        """Whether the budget is spent."""
        if self.remaining_ms() > 0.0:
            return False
        if not self._reported:
            self._reported = True
            _EXPIRED.inc()
            log.warning("deadline.expired",
                        deadline_ms=self.deadline_ms,
                        elapsed_ms=round(self.elapsed_ms(), 3))
        return True

    def activity_low(self) -> bool:
        """Whether the activity block should be shed (reserve hit)."""
        return self.remaining_ms() <= self.activity_reserve_ms

    def check(self, stage: str) -> None:
        """Raise at *stage* if expired and degradation is not allowed."""
        if self.expired() and not self.degraded_ok:
            raise DeadlineExceededError(
                f"deadline of {self.deadline_ms:g} ms exceeded after "
                f"{self.elapsed_ms():.1f} ms (stage: {stage})",
                stage=stage)
