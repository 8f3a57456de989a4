"""Process-wide metrics registry: counters, gauges, histograms.

Unlike spans (:mod:`repro.obs.spans`), metrics are **always live** —
they are plain in-memory numbers cheap enough for the hot paths, and
they give the pipeline its accounting invariants, e.g.::

    attribution_accepted_total + attribution_rejected_total
        == number of unknown aliases linked

The three instrument kinds follow the Prometheus vocabulary without
the dependency:

* :class:`Counter` — monotonically increasing totals (suffix
  ``_total`` by convention);
* :class:`Gauge` — last-write-wins instantaneous values
  (``encoder_vocab_size``);
* :class:`Histogram` — fixed-bucket distribution with count/sum/min/
  max (``similarity_score``).

A snapshot is a plain JSON-serializable dict.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "counter",
    "gauge",
    "histogram",
    "SCORE_BUCKETS",
    "SIZE_BUCKETS",
    "LATENCY_MS_BUCKETS",
]

#: Bucket edges for cosine-similarity scores (scores live in [0, 1]).
SCORE_BUCKETS: Tuple[float, ...] = (
    0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.4190, 0.5,
    0.6, 0.7, 0.8, 0.9, 1.0,
)

#: Bucket edges for set sizes (candidate pools, batches).
SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 5_000, 10_000,
)

#: Bucket edges for millisecond latencies.
LATENCY_MS_BUCKETS: Tuple[float, ...] = (
    0.1, 0.5, 1, 5, 10, 50, 100, 500, 1_000, 5_000, 10_000, 60_000,
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "_value", "_lock")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc by {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self._value}

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """An instantaneous value (last write wins)."""

    __slots__ = ("name", "_value", "_lock")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self._value}

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


def _estimate_percentile(buckets: Sequence[float], counts: Sequence[int],
                         count: int, lo: Optional[float],
                         hi: Optional[float], q: float) -> Optional[float]:
    """Percentile estimate from fixed-bucket counts.

    Walks the cumulative counts to the bucket containing the target
    rank, linearly interpolates inside it, and clamps to the observed
    min/max so the open-ended edge buckets cannot extrapolate.
    """
    if count <= 0:
        return None
    rank = (q / 100.0) * count
    cumulative = 0
    for i, bucket_count in enumerate(counts):
        if bucket_count <= 0:
            continue
        if cumulative + bucket_count >= rank:
            lower = buckets[i - 1] if i > 0 else (
                lo if lo is not None else 0.0)
            upper = buckets[i] if i < len(buckets) else (
                hi if hi is not None else lower)
            fraction = (rank - cumulative) / bucket_count
            value = lower + (upper - lower) * max(fraction, 0.0)
            if lo is not None:
                value = max(value, lo)
            if hi is not None:
                value = min(value, hi)
            return value
        cumulative += bucket_count
    return hi


class Histogram:
    """A fixed-bucket distribution.

    Buckets are defined by their strictly increasing upper edges: an
    observation ``v`` lands in the first bucket whose edge satisfies
    ``v <= edge``; values above the last edge land in the implicit
    overflow bucket, so ``len(counts) == len(buckets) + 1``.

    Percentiles (p50/p95/p99 in snapshots, arbitrary via
    :meth:`percentile`) are *estimates* interpolated inside the
    containing bucket and clamped to the observed min/max — good to a
    bucket's width, which is what fixed buckets can promise.
    """

    __slots__ = ("name", "buckets", "_counts", "_count", "_sum",
                 "_min", "_max", "_lock")

    kind = "histogram"

    def __init__(self, name: str,
                 buckets: Sequence[float] = LATENCY_MS_BUCKETS) -> None:
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise ConfigurationError(
                f"histogram {name!r} needs at least one bucket edge")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ConfigurationError(
                f"histogram {name!r} bucket edges must be strictly "
                f"increasing, got {edges}")
        self.name = name
        self.buckets = edges
        self._counts = [0] * (len(edges) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Estimated q-th percentile (0–100), ``None`` with no data."""
        with self._lock:
            return _estimate_percentile(self.buckets, self._counts,
                                        self._count, self._min,
                                        self._max, q)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            snap = {
                "type": "histogram",
                "buckets": list(self.buckets),
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
            }
            for q in (50, 95, 99):
                snap[f"p{q}"] = _estimate_percentile(
                    self.buckets, self._counts, self._count,
                    self._min, self._max, q)
            return snap

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None


class MetricsRegistry:
    """A named collection of instruments with get-or-create semantics.

    Asking twice for the same name returns the same instrument; asking
    for an existing name with a different kind raises
    :class:`~repro.errors.ConfigurationError` (silent type clashes are
    how telemetry rots).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind: type, **kwargs: Any) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, requested {kind.kind}")
            return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter *name*."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge *name*."""
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str,
                  buckets: Sequence[float] = LATENCY_MS_BUCKETS,
                  ) -> Histogram:
        """Get or create the histogram *name* with *buckets* edges."""
        return self._get_or_create(name, Histogram, buckets=buckets)

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._metrics))

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All metrics as one JSON-serializable dict (sorted names)."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metrics[name].snapshot()
                for name in sorted(metrics)}

    def reset(self) -> None:
        """Zero every instrument (instances stay registered)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()


# ---------------------------------------------------------------------------
# Process-wide default registry + module-level conveniences
# ---------------------------------------------------------------------------

_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry used by the module-level helpers."""
    return _REGISTRY


def counter(name: str) -> Counter:
    """Get or create a counter on the default registry."""
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """Get or create a gauge on the default registry."""
    return _REGISTRY.gauge(name)


def histogram(name: str,
              buckets: Sequence[float] = LATENCY_MS_BUCKETS) -> Histogram:
    """Get or create a histogram on the default registry."""
    return _REGISTRY.histogram(name, buckets=buckets)
