"""Deterministic fault injection: reproducible chaos for the pipeline.

The paper's collection environment — scraped hidden services over Tor —
fails constantly, and a reproduction that is only ever exercised on the
happy path is not a reproduction of that environment.  A
:class:`FaultPlan` wraps the I/O sites (storage and index snapshots)
and injects:

* **transient failures** (:class:`~repro.errors.TransientError`) that a
  :class:`~repro.resilience.policy.RetryPolicy` is expected to absorb;
* **record corruption** (bit-flips inside serialized lines) to harden
  loaders;
* **clock skew** (whole-hour timestamp shifts) to stress the UTC
  realignment of Section IV-B.

Everything is keyed by ``(seed, site, invocation #)`` through a hash,
never by a shared RNG stream, so injections are independent of call
ordering elsewhere: the 3rd call at site ``"storage.load"`` fails (or
not) identically in every run with the same seed.

A process-wide plan can be installed explicitly
(:func:`install_fault_plan`) or picked up from the environment —
``REPRO_FAULT_SEED`` activates injection, ``REPRO_FAULT_RATE``
(default 0.1) sets the transient-failure probability — which is how
the CI chaos job exercises the retry paths of the whole suite.
"""

from __future__ import annotations

import errno
import hashlib
import os
import threading
from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.errors import ConfigurationError, TransientError
from repro.obs.metrics import counter

#: Faults injected, by any plan, since process start.
_INJECTED = counter("faults_injected_total")

#: Environment knobs read by :func:`plan_from_env`.
FAULT_SEED_ENV = "REPRO_FAULT_SEED"
FAULT_RATE_ENV = "REPRO_FAULT_RATE"
FAULT_KINDS_ENV = "REPRO_FAULT_KINDS"

#: Default transient-failure probability when only the seed is set.
DEFAULT_FAULT_RATE = 0.1

#: Fault-kind names accepted by ``REPRO_FAULT_KINDS``.
FAULT_KINDS = ("transient", "corrupt", "fs")


def _site_fraction(seed: int, site: str, invocation: int) -> float:
    """Deterministic fraction in [0, 1) for one invocation of *site*."""
    digest = hashlib.blake2b(f"{seed}:{site}:{invocation}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2 ** 64


@dataclass
class FaultPlan:
    """A reproducible schedule of injected failures.

    Parameters
    ----------
    seed:
        Master seed; two plans with the same seed inject identically.
    transient_rate:
        Probability that any given :meth:`check` call raises
        :class:`~repro.errors.TransientError`.
    corrupt_rate:
        Probability that :meth:`corrupt_line` actually flips a bit.
    torn_rate:
        Probability that :meth:`torn_bytes` truncates a payload mid-way
        (a torn write: the process died between ``write`` and
        ``rename``).
    enospc_rate:
        Probability that :meth:`fs_check` raises ``OSError(ENOSPC)``
        (the disk filled up under the writer).
    read_corrupt_rate:
        Probability that :meth:`corrupt_bytes` flips one bit of a
        payload read back from disk (silent media corruption).
    skew_hours:
        Whole-hour shift applied by :meth:`skew_timestamp` (models a
        forum whose displayed clock drifted).
    max_faults:
        Optional global cap; after this many injections the plan goes
        quiet (lets chaos tests guarantee eventual completion even at
        high rates).
    """

    seed: int = 0
    transient_rate: float = 0.0
    corrupt_rate: float = 0.0
    torn_rate: float = 0.0
    enospc_rate: float = 0.0
    read_corrupt_rate: float = 0.0
    skew_hours: int = 0
    max_faults: Optional[int] = None
    _counts: TallyCounter = field(default_factory=TallyCounter,
                                  repr=False)
    _injected: int = field(default=0, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def __post_init__(self) -> None:
        for name in ("transient_rate", "corrupt_rate", "torn_rate",
                     "enospc_rate", "read_corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1), got {rate}")

    # -- bookkeeping ----------------------------------------------------------

    @property
    def injected(self) -> int:
        """Faults injected by this plan so far."""
        return self._injected

    def _next_invocation(self, site: str) -> int:
        with self._lock:
            n = self._counts[site]
            self._counts[site] = n + 1
            return n

    def _spend(self) -> bool:
        """Account one injection; ``False`` when the cap is spent."""
        with self._lock:
            if self.max_faults is not None and \
                    self._injected >= self.max_faults:
                return False
            self._injected += 1
        _INJECTED.inc()
        return True

    def reset(self) -> None:
        """Forget all invocation history (restart the schedule)."""
        with self._lock:
            self._counts.clear()
            self._injected = 0

    # -- injection points -----------------------------------------------------

    def check(self, site: str) -> None:
        """Maybe raise a :class:`~repro.errors.TransientError` at *site*.

        Call this at the top of any operation that could fail
        transiently in the real environment.  Each call advances the
        site's invocation counter whether or not it injects.
        """
        invocation = self._next_invocation(site)
        if self.transient_rate <= 0.0:
            return
        if _site_fraction(self.seed, site, invocation) \
                < self.transient_rate and self._spend():
            raise TransientError(
                f"injected transient fault at {site!r} "
                f"(invocation {invocation})")

    def wrap(self, site: str, fn: Callable[..., Any],
             ) -> Callable[..., Any]:
        """Return *fn* preceded by a :meth:`check` at *site*."""
        def faulty(*args: Any, **kwargs: Any) -> Any:
            self.check(site)
            return fn(*args, **kwargs)
        faulty.__name__ = getattr(fn, "__name__", "faulty")
        return faulty

    def corrupt_line(self, line: str, site: str = "storage.line") -> str:
        """Maybe flip one bit of *line* (record corruption).

        The flipped position and bit are derived from the schedule, so
        the same line at the same site corrupts identically.
        """
        invocation = self._next_invocation(site)
        if self.corrupt_rate <= 0.0 or not line:
            return line
        u = _site_fraction(self.seed, site, invocation)
        if u >= self.corrupt_rate or not self._spend():
            return line
        payload = bytearray(line.encode("utf-8"))
        position = int(_site_fraction(self.seed, site + "#pos",
                                      invocation) * len(payload))
        payload[position] ^= 1 << int(
            _site_fraction(self.seed, site + "#bit", invocation) * 8)
        return payload.decode("utf-8", errors="replace")

    def skew_timestamp(self, timestamp: int) -> int:
        """Apply the plan's whole-hour clock skew to *timestamp*."""
        return timestamp + self.skew_hours * 3600

    # -- filesystem fault kinds ----------------------------------------------

    def fs_check(self, site: str) -> None:
        """Maybe raise ``OSError(ENOSPC)`` at a filesystem write *site*.

        Models the disk filling up mid-write; callers are expected to
        clean up their temporary file and surface the ``OSError``.
        """
        invocation = self._next_invocation(site + "#enospc")
        if self.enospc_rate <= 0.0:
            return
        if _site_fraction(self.seed, site + "#enospc", invocation) \
                < self.enospc_rate and self._spend():
            raise OSError(
                errno.ENOSPC,
                f"injected ENOSPC at {site!r} (invocation {invocation})")

    def torn_bytes(self, payload: bytes, site: str) -> Optional[bytes]:
        """Maybe return a truncated prefix of *payload* (a torn write).

        Returns ``None`` when no fault fires.  The cut point is
        schedule-derived and always strictly inside the payload, so a
        torn write is never a complete one.
        """
        invocation = self._next_invocation(site + "#torn")
        if self.torn_rate <= 0.0 or len(payload) < 2:
            return None
        if _site_fraction(self.seed, site + "#torn", invocation) \
                >= self.torn_rate or not self._spend():
            return None
        cut = 1 + int(_site_fraction(self.seed, site + "#cut",
                                     invocation) * (len(payload) - 1))
        return payload[:cut]

    def corrupt_bytes(self, payload: bytes, site: str) -> bytes:
        """Maybe flip one bit of *payload* (read-side corruption).

        The flipped position and bit are schedule-derived, so the same
        read at the same site corrupts identically in every run.
        """
        invocation = self._next_invocation(site + "#bitflip")
        if self.read_corrupt_rate <= 0.0 or not payload:
            return payload
        if _site_fraction(self.seed, site + "#bitflip", invocation) \
                >= self.read_corrupt_rate or not self._spend():
            return payload
        corrupted = bytearray(payload)
        position = int(_site_fraction(self.seed, site + "#pos",
                                      invocation) * len(corrupted))
        corrupted[position] ^= 1 << int(
            _site_fraction(self.seed, site + "#bit", invocation) * 8)
        return bytes(corrupted)


# ---------------------------------------------------------------------------
# Process-wide plan (explicit install or environment-driven)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None
_ACTIVE_LOCK = threading.Lock()


def install_fault_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install *plan* process-wide; returns the previous plan.

    Pass ``None`` to deactivate injection.  Instrumented call sites
    (storage and snapshot I/O) consult :func:`get_fault_plan` on
    every operation, so installation takes effect immediately.
    """
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous, _ACTIVE = _ACTIVE, plan
    return previous


def plan_from_env(environ: Optional[Dict[str, str]] = None,
                  ) -> Optional[FaultPlan]:
    """Build a plan from the ``REPRO_FAULT_*`` environment knobs.

    ``REPRO_FAULT_SEED`` activates injection (unset means off),
    ``REPRO_FAULT_RATE`` sets the per-kind probability, and
    ``REPRO_FAULT_KINDS`` — a comma list from ``transient``,
    ``corrupt``, ``fs`` and ``all`` — selects which fault kinds fire
    at that rate (default: ``transient``, the pre-fs behavior).
    """
    env = os.environ if environ is None else environ
    raw_seed = env.get(FAULT_SEED_ENV)
    if raw_seed is None or raw_seed == "":
        return None
    try:
        seed = int(raw_seed)
    except ValueError:
        raise ConfigurationError(
            f"{FAULT_SEED_ENV} must be an integer, got {raw_seed!r}")
    raw_rate = env.get(FAULT_RATE_ENV)
    try:
        rate = DEFAULT_FAULT_RATE if raw_rate in (None, "") \
            else float(raw_rate)
    except ValueError:
        raise ConfigurationError(
            f"{FAULT_RATE_ENV} must be a float, got {raw_rate!r}")
    raw_kinds = env.get(FAULT_KINDS_ENV)
    if raw_kinds in (None, ""):
        kinds = {"transient"}
    else:
        kinds = {piece.strip().lower()
                 for piece in raw_kinds.split(",") if piece.strip()}
        if "all" in kinds:
            kinds = set(FAULT_KINDS)
        unknown = kinds - set(FAULT_KINDS)
        if unknown:
            raise ConfigurationError(
                f"{FAULT_KINDS_ENV} names unknown fault kinds "
                f"{sorted(unknown)}; valid: {', '.join(FAULT_KINDS)}")
    return FaultPlan(
        seed=seed,
        transient_rate=rate if "transient" in kinds else 0.0,
        corrupt_rate=rate if "corrupt" in kinds else 0.0,
        torn_rate=rate if "fs" in kinds else 0.0,
        enospc_rate=rate if "fs" in kinds else 0.0,
        read_corrupt_rate=rate if "fs" in kinds else 0.0,
    )


#: Policy used by :func:`guarded_call`: enough attempts to make the
#: suite-under-chaos statistically safe, with near-zero real sleeping.
GUARD_POLICY_DELAYS = dict(max_retries=8, base_delay=0.01,
                           multiplier=2.0, max_delay=0.25)


def guarded_call(site: str, fn: Callable[..., Any], *args: Any,
                 policy: Optional["RetryPolicy"] = None,
                 **kwargs: Any) -> Any:
    """Run ``fn(*args, **kwargs)`` under the active fault plan.

    With no plan active this is a plain call (zero overhead beyond one
    lookup).  With a plan, the call site is fault-injected and wrapped
    in a retry policy, so instrumented I/O keeps its contract — it
    succeeds or raises its own error types — while the retry paths
    actually get exercised.
    """
    plan = get_fault_plan()
    if plan is None:
        return fn(*args, **kwargs)
    from repro.resilience.policy import RetryPolicy

    if policy is None:
        policy = RetryPolicy(seed=plan.seed, **GUARD_POLICY_DELAYS)
    return policy.call(plan.wrap(site, fn), *args, **kwargs)


def get_fault_plan() -> Optional[FaultPlan]:
    """The active plan: the installed one, else one from the
    environment (cached on first sight), else ``None``."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        if _ACTIVE is not None:
            return _ACTIVE
    plan = plan_from_env()
    if plan is not None:
        with _ACTIVE_LOCK:
            if _ACTIVE is None:
                _ACTIVE = plan
            return _ACTIVE
    return None
