"""Hierarchical tracing spans with wall/CPU timing.

The span API is the backbone of the observability layer: every stage of
the two-stage attribution pipeline wraps its work in a span, producing
a trace *tree* that records wall-clock and CPU time per stage::

    from repro.obs import span, enable_tracing, get_trace

    enable_tracing()
    with span("linker.link", n_unknowns=40):
        with span("linker.stage1", k=10):
            ...
        with span("linker.stage2", k=10):
            ...
    tree = get_trace()          # JSON-serializable dict

Design constraints (and how they are met):

* **zero dependencies** — stdlib ``time``/``threading`` only;
* **thread safety** — each thread keeps its own active-span stack in a
  ``threading.local``; finished root spans are appended to a shared
  list under a lock, so worker threads can trace concurrently;
* **negligible overhead when disabled** — ``span()`` checks one module
  attribute and returns a shared no-op context manager without
  allocating anything (see :mod:`repro.obs.instrument` for the
  decorator equivalent).

Tracing is **disabled by default**; the CLI enables it for ``--trace``
runs and tests enable it explicitly.  Metric counters
(:mod:`repro.obs.metrics`) are independent of this switch and are
always live.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence

__all__ = [
    "Span",
    "Tracer",
    "span",
    "timer",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "current_span",
    "get_trace",
    "reset_trace",
    "iter_spans",
    "aggregate_spans",
    "render_flame",
    "get_tracer",
]

#: Trace-file schema version (bumped on incompatible changes).
TRACE_VERSION = 2

#: Installed by :mod:`repro.obs.prof` while profiling is enabled; the
#: span hot path pays exactly one global load + ``is None`` check when
#: it is off, and allocates nothing.
_PROFILE_HOOK: Optional[Any] = None


def _set_profile_hook(hook: Optional[Any]) -> None:
    """Install (or clear) the span-boundary resource profiler."""
    global _PROFILE_HOOK
    _PROFILE_HOOK = hook


def _get_profile_hook() -> Optional[Any]:
    return _PROFILE_HOOK


class Span:
    """One timed operation in the trace tree.

    Attributes
    ----------
    name:
        Dotted stage name, e.g. ``"linker.stage2"`` (conventions in
        ``docs/observability.md``).
    attributes:
        Arbitrary JSON-serializable key/value payload.
    wall_ms / cpu_ms:
        Wall-clock and CPU duration in milliseconds (set on exit).
    status:
        ``"ok"`` or ``"error"``; errors record ``repr(exc)`` in
        ``error`` and propagate.
    children:
        Sub-spans finished while this span was active on the same
        thread.
    ts_us / pid / tid:
        Start timestamp in microseconds on the shared monotonic clock
        (``time.perf_counter``), and the process/thread that ran the
        span — together they place the span on a Chrome-trace timeline
        lane.
    resources:
        Resource-profile payload (RSS delta, GC counts, allocation
        stats) attached by :mod:`repro.obs.prof` when profiling is
        enabled; ``None`` otherwise.
    """

    __slots__ = ("name", "attributes", "children", "status", "error",
                 "wall_ms", "cpu_ms", "ts_us", "pid", "tid",
                 "resources", "_start_wall", "_start_cpu", "_prof")

    def __init__(self, name: str,
                 attributes: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.children: List["Span"] = []
        self.status = "ok"
        self.error: Optional[str] = None
        self.wall_ms = 0.0
        self.cpu_ms = 0.0
        self.ts_us = 0.0
        self.pid = 0
        self.tid = 0
        self.resources: Optional[Dict[str, Any]] = None
        self._start_wall = 0.0
        self._start_cpu = 0.0
        self._prof: Optional[Any] = None

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach one attribute to an open (or finished) span."""
        self.attributes[key] = value

    # -- timing ---------------------------------------------------------------

    def _start(self) -> None:
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        hook = _PROFILE_HOOK
        if hook is not None:
            self._prof = hook.begin()
        self._start_wall = time.perf_counter()
        self._start_cpu = time.process_time()
        self.ts_us = self._start_wall * 1e6

    def _finish(self, exc: Optional[BaseException] = None) -> None:
        self.wall_ms = (time.perf_counter() - self._start_wall) * 1000.0
        self.cpu_ms = (time.process_time() - self._start_cpu) * 1000.0
        if self._prof is not None:
            hook = _PROFILE_HOOK
            if hook is not None:
                self.resources = hook.end(self._prof)
            self._prof = None
        if exc is not None:
            self.status = "error"
            self.error = repr(exc)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation (children recurse)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "wall_ms": round(self.wall_ms, 4),
            "cpu_ms": round(self.cpu_ms, 4),
            "status": self.status,
            "ts_us": round(self.ts_us, 1),
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.attributes:
            out["attributes"] = self.attributes
        if self.error is not None:
            out["error"] = self.error
        if self.resources is not None:
            out["resources"] = self.resources
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, wall_ms={self.wall_ms:.3f}, "
                f"children={len(self.children)})")


class _NoopSpan:
    """Shared do-nothing context manager for the disabled fast path.

    A single module-level instance is handed out by :func:`span` when
    tracing is off, so the disabled path costs one attribute check and
    no allocation.  It is stateless, hence safely reentrant and
    shareable across threads.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """Context manager binding a :class:`Span` to a tracer's stack."""

    __slots__ = ("_tracer", "_span", "_record")

    def __init__(self, tracer: "Tracer", name: str,
                 attributes: Dict[str, Any], record: bool = True) -> None:
        self._tracer = tracer
        self._span = Span(name, attributes)
        self._record = record

    def __enter__(self) -> Span:
        if self._record:
            self._tracer._push(self._span)
        self._span._start()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span._finish(exc)
        if self._record:
            self._tracer._pop(self._span)
        return False


class Tracer:
    """Collects spans into per-thread trees under one root list.

    Normally the process-wide instance from :func:`get_tracer` is all
    you need; private tracers exist for tests.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._roots: List[Span] = []
        self._lock = threading.Lock()

    # -- stack maintenance ----------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span_obj: Span) -> None:
        self._stack().append(span_obj)

    def _pop(self, span_obj: Span) -> None:
        """Detach *span_obj* and restore the previously active span.

        Runs in ``__exit__`` so the active-span stack is restored even
        when the traced block raises.  Out-of-order exits (a generator
        finalized late, say) are tolerated by removing the span from
        wherever it sits in the stack.
        """
        stack = self._stack()
        if stack and stack[-1] is span_obj:
            stack.pop()
        elif span_obj in stack:  # pragma: no cover - defensive
            stack.remove(span_obj)
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.children.append(span_obj)
        else:
            with self._lock:
                self._roots.append(span_obj)

    # -- public API -----------------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """Open a span (or a shared no-op when tracing is disabled)."""
        if not self.enabled:
            return _NOOP_SPAN
        return _ActiveSpan(self, name, attributes)

    def timer(self, name: str, **attributes: Any) -> _ActiveSpan:
        """A context manager that *always* measures.

        Unlike :meth:`span`, the yielded :class:`Span` is timed even
        with tracing disabled — benchmarks use this so bench timing and
        pipeline telemetry share one code path.  The span only joins
        the trace tree when tracing is enabled.
        """
        return _ActiveSpan(self, name, attributes, record=self.enabled)

    def current_span(self) -> Optional[Span]:
        """The innermost open span on this thread, or ``None``."""
        stack = self._stack()
        return stack[-1] if stack else None

    def roots(self) -> List[Span]:
        """Finished top-level spans (snapshot copy)."""
        with self._lock:
            return list(self._roots)

    def reset(self) -> None:
        """Drop all finished spans (open spans are unaffected)."""
        with self._lock:
            self._roots.clear()

    def to_dict(self) -> Dict[str, Any]:
        """The whole trace as a JSON-serializable dict."""
        return {
            "version": TRACE_VERSION,
            "spans": [s.to_dict() for s in self.roots()],
        }


# ---------------------------------------------------------------------------
# Process-wide default tracer + module-level conveniences
# ---------------------------------------------------------------------------

_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer used by the module-level helpers."""
    return _TRACER


def span(name: str, **attributes: Any):
    """Open a span on the default tracer (no-op while disabled)."""
    if not _TRACER.enabled:
        return _NOOP_SPAN
    return _ActiveSpan(_TRACER, name, attributes)


def timer(name: str, **attributes: Any) -> _ActiveSpan:
    """Always-on timing context manager on the default tracer."""
    return _TRACER.timer(name, **attributes)


def enable_tracing() -> None:
    """Start recording spans process-wide."""
    _TRACER.enabled = True


def disable_tracing() -> None:
    """Stop recording spans (already-finished spans are kept)."""
    _TRACER.enabled = False


def tracing_enabled() -> bool:
    """Whether the default tracer is currently recording."""
    return _TRACER.enabled


def current_span() -> Optional[Span]:
    """The innermost open span on this thread, or ``None``."""
    return _TRACER.current_span()


def get_trace() -> Dict[str, Any]:
    """The default tracer's trace as a JSON-serializable dict."""
    return _TRACER.to_dict()


def reset_trace() -> None:
    """Drop every finished span on the default tracer."""
    _TRACER.reset()


# ---------------------------------------------------------------------------
# Trace analysis
# ---------------------------------------------------------------------------

def iter_spans(node: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """Depth-first walk over one exported span dict and its children."""
    yield node
    for child in node.get("children") or ():
        yield from iter_spans(child)


def aggregate_spans(trace: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Per-name totals over an exported trace.

    Returns ``name -> {"calls", "wall_ms", "cpu_ms", "max_wall_ms"}``
    summed over every span of that name anywhere in the tree — the
    "per-stage totals" view of ``darklight stats``.
    """
    totals: Dict[str, Dict[str, float]] = {}
    for root in trace.get("spans") or ():
        for node in iter_spans(root):
            entry = totals.setdefault(str(node.get("name", "?")), {
                "calls": 0, "wall_ms": 0.0, "cpu_ms": 0.0,
                "max_wall_ms": 0.0,
            })
            entry["calls"] += 1
            entry["wall_ms"] += node.get("wall_ms", 0.0)
            entry["cpu_ms"] += node.get("cpu_ms", 0.0)
            entry["max_wall_ms"] = max(entry["max_wall_ms"],
                                       node.get("wall_ms", 0.0))
    return totals


def _render_node(node: Dict[str, Any], total_ms: float, depth: int,
                 lines: List[str], bar_width: int = 20) -> None:
    wall = node.get("wall_ms", 0.0)
    share = wall / total_ms if total_ms > 0 else 0.0
    bar = "#" * max(1, round(share * bar_width)) if wall > 0 else ""
    marker = " !" if node.get("status") == "error" else ""
    name = str(node.get("name", "?"))
    lines.append(f"{'  ' * depth}{name:<{40 - 2 * depth}} "
                 f"{wall:>10.2f}ms {share:>6.1%}  {bar}{marker}")
    # Collapse identical-name siblings so loops read as one line.
    groups: Dict[str, List[Dict[str, Any]]] = {}
    order: List[str] = []
    for child in node.get("children") or ():
        child_name = str(child.get("name", "?"))
        if child_name not in groups:
            order.append(child_name)
        groups.setdefault(child_name, []).append(child)
    for name in order:
        members = groups[name]
        if len(members) == 1:
            _render_node(members[0], total_ms, depth + 1, lines, bar_width)
        else:
            merged: Dict[str, Any] = {
                "name": f"{name} [x{len(members)}]",
                "wall_ms": sum(m.get("wall_ms", 0.0) for m in members),
                "cpu_ms": sum(m.get("cpu_ms", 0.0) for m in members),
                "status": ("error" if any(m.get("status") == "error"
                                          for m in members) else "ok"),
                "children": [c for m in members
                             for c in m.get("children") or ()],
            }
            _render_node(merged, total_ms, depth + 1, lines, bar_width)


def render_flame(trace: Dict[str, Any]) -> str:
    """Flame-style indented text report of an exported trace.

    Sibling spans with identical names (loop iterations) are collapsed
    into one ``name [xN]`` line with summed durations; percentages are
    relative to the total wall time of all root spans.
    """
    roots: Sequence[Dict[str, Any]] = trace.get("spans") or ()
    if not roots:
        return "(empty trace)"
    total = sum(r.get("wall_ms", 0.0) for r in roots) or 1.0
    lines: List[str] = []
    for root in roots:
        _render_node(root, total, 0, lines)
    return "\n".join(lines)
