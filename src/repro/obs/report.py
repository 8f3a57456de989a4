"""Trace-file persistence and the ``darklight stats`` renderer.

A trace file is one JSON document combining the span tree of
:mod:`repro.obs.spans` with a metrics snapshot from
:mod:`repro.obs.metrics`::

    {"version": 1,
     "spans": [...],            # nested span dicts
     "metrics": {...},          # registry snapshot
     "metadata": {...}}         # free-form (CLI argv, scale, ...)

:func:`render_stats` turns that document back into the human view:
per-stage totals, the slowest individual spans, the metric table and
the flame-style tree.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import DatasetError
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans

__all__ = [
    "build_trace_document",
    "write_trace",
    "load_trace",
    "render_stats",
    "render_metrics",
    "export_chrome_trace",
    "write_chrome_trace",
]


def build_trace_document(metadata: Optional[Mapping[str, Any]] = None,
                         tracer: Optional[_spans.Tracer] = None,
                         registry: Optional[_metrics.MetricsRegistry] = None,
                         ) -> Dict[str, Any]:
    """Combine the current trace + metrics into one export dict."""
    tracer = tracer or _spans.get_tracer()
    registry = registry or _metrics.get_registry()
    document = tracer.to_dict()
    document["metrics"] = registry.snapshot()
    if metadata:
        document["metadata"] = dict(metadata)
    return document


def write_trace(path: Union[str, Path],
                metadata: Optional[Mapping[str, Any]] = None,
                tracer: Optional[_spans.Tracer] = None,
                registry: Optional[_metrics.MetricsRegistry] = None,
                ) -> Path:
    """Write the current trace + metrics snapshot as JSON to *path*."""
    path = Path(path)
    document = build_trace_document(metadata, tracer, registry)
    path.write_text(json.dumps(document, indent=2, default=str) + "\n",
                    encoding="utf-8")
    return path


def load_trace(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a trace file, validating the basic shape."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DatasetError(f"trace file {path} does not exist")
    except json.JSONDecodeError as exc:
        raise DatasetError(f"trace file {path} is not valid JSON: {exc}")
    if not isinstance(document, dict) or "spans" not in document:
        raise DatasetError(
            f"trace file {path} is missing the 'spans' key")
    # Tolerate degenerate-but-declared sections: a trace of a run that
    # recorded nothing ("spans": null/[]) or predates metrics must
    # still render, not crash the stats command.
    if not isinstance(document.get("spans"), list):
        document["spans"] = []
    if not isinstance(document.get("metrics"), dict):
        document["metrics"] = {}
    return document


# ---------------------------------------------------------------------------
# Chrome Trace Event export
# ---------------------------------------------------------------------------

def _chrome_events(node: Mapping[str, Any], origin_us: float,
                   fallback_ts: float, fallback_pid: int,
                   events: List[Dict[str, Any]]) -> float:
    """Emit one span subtree as complete ("X") events; returns the
    span's duration in µs so siblings without timestamps can be laid
    out sequentially after it."""
    dur_us = max(float(node.get("wall_ms", 0.0)) * 1000.0, 0.0)
    ts_raw = float(node.get("ts_us") or 0.0)
    ts = ts_raw - origin_us if ts_raw > 0 else fallback_ts
    pid = int(node.get("pid") or 0) or fallback_pid
    tid = int(node.get("tid") or 0) or 1
    args: Dict[str, Any] = dict(node.get("attributes") or {})
    args["cpu_ms"] = node.get("cpu_ms", 0.0)
    if node.get("resources"):
        args["resources"] = node["resources"]
    if node.get("error"):
        args["error"] = node["error"]
    events.append({
        "name": str(node.get("name", "?")),
        "cat": "span" if node.get("status", "ok") == "ok" else "error",
        "ph": "X",
        "ts": round(ts, 1),
        "dur": round(dur_us, 1),
        "pid": pid,
        "tid": tid,
        "args": args,
    })
    cursor = ts
    for child in node.get("children") or ():
        child_dur = _chrome_events(child, origin_us, cursor, pid, events)
        cursor += child_dur
    return dur_us


def export_chrome_trace(document: Mapping[str, Any]) -> Dict[str, Any]:
    """Convert a trace document into Chrome Trace Event JSON.

    The output loads directly in ``about://tracing`` and Perfetto:
    every span becomes a complete ("X") event with microsecond
    timestamps on a lane per process and thread.

    Spans from pre-v2 traces carry no timestamps; they are laid out
    sequentially from their parent's start so old files still render.
    """
    roots = document.get("spans") or ()
    all_ts = [float(n.get("ts_us") or 0.0)
              for root in roots for n in _spans.iter_spans(root)]
    positive = [t for t in all_ts if t > 0]
    origin = min(positive) if positive else 0.0
    main_pid = 0
    for root in roots:
        main_pid = int(root.get("pid") or 0)
        if main_pid:
            break

    events: List[Dict[str, Any]] = []
    cursor = 0.0
    for root in roots:
        cursor += _chrome_events(root, origin, cursor, main_pid, events)

    for pid in sorted({e["pid"] for e in events}):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": "darklight"}})
    metadata = dict(document.get("metadata") or {})
    metadata["trace_version"] = document.get("version")
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": metadata}


def write_chrome_trace(path: Union[str, Path],
                       document: Optional[Mapping[str, Any]] = None,
                       metadata: Optional[Mapping[str, Any]] = None,
                       ) -> Path:
    """Write the current (or given) trace in Chrome Trace Event format."""
    if document is None:
        document = build_trace_document(metadata)
    path = Path(path)
    path.write_text(
        json.dumps(export_chrome_trace(document), indent=2, default=str)
        + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _table(headers: Sequence[str],
           rows: Sequence[Sequence[object]]) -> List[str]:
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in str_rows)
    return out


def _stage_totals(trace: Mapping[str, Any]) -> List[str]:
    totals = _spans.aggregate_spans(dict(trace))
    if not totals:
        return ["(no spans recorded)"]
    grand = sum(r.get("wall_ms", 0.0)
                for r in trace.get("spans") or ()) or 1.0
    rows = []
    for name, entry in sorted(totals.items(),
                              key=lambda kv: -kv[1]["wall_ms"]):
        rows.append((
            name,
            int(entry["calls"]),
            f"{entry['wall_ms']:.2f}",
            f"{entry['cpu_ms']:.2f}",
            f"{entry['wall_ms'] / entry['calls']:.2f}",
            f"{entry['wall_ms'] / grand:.1%}",
        ))
    return _table(("span", "calls", "wall ms", "cpu ms", "avg ms", "share"),
                  rows)


def _slowest_spans(trace: Mapping[str, Any], top: int = 10) -> List[str]:
    flat: List[Dict[str, Any]] = []
    for root in trace.get("spans") or ():
        flat.extend(_spans.iter_spans(root))
    flat.sort(key=lambda n: -n.get("wall_ms", 0.0))
    rows = []
    for node in flat[:top]:
        attrs = node.get("attributes") or {}
        attr_text = " ".join(f"{k}={v}" for k, v in attrs.items())
        rows.append((str(node.get("name", "?")),
                     f"{node.get('wall_ms', 0.0):.2f}",
                     node.get("status", "ok"), attr_text))
    if not rows:
        return ["(no spans recorded)"]
    return _table(("span", "wall ms", "status", "attributes"), rows)


def render_metrics(metrics: Mapping[str, Mapping[str, Any]]) -> List[str]:
    """Render a metrics snapshot as an aligned text table."""
    if not metrics:
        return ["(no metrics recorded)"]
    rows = []
    for name in sorted(metrics):
        data = metrics[name]
        kind = data.get("type", "?")
        if kind == "histogram":
            count = data.get("count", 0)
            mean = (data.get("sum", 0.0) / count) if count else 0.0
            detail = (f"count={count} mean={mean:.4f} "
                      f"min={data.get('min')} max={data.get('max')}")
            quantiles = " ".join(
                f"p{q}={data[f'p{q}']:.4f}" for q in (50, 95, 99)
                if isinstance(data.get(f"p{q}"), (int, float)))
            if quantiles:
                detail = f"{detail} {quantiles}"
            rows.append((name, kind, detail))
        else:
            rows.append((name, kind, str(data.get("value"))))
    return _table(("metric", "type", "value"), rows)


def render_stats(trace: Mapping[str, Any]) -> str:
    """The full ``darklight stats`` report for one trace document."""
    lines: List[str] = []
    metadata = trace.get("metadata") or {}
    if metadata:
        lines.append("metadata")
        for key in sorted(metadata):
            lines.append(f"  {key}: {metadata[key]}")
        lines.append("")
    lines.append("per-stage totals")
    lines.extend(_stage_totals(trace))
    lines.append("")
    lines.append("slowest spans")
    lines.extend(_slowest_spans(trace))
    lines.append("")
    lines.append("metrics")
    lines.extend(render_metrics(trace.get("metrics") or {}))
    lines.append("")
    lines.append("trace tree")
    lines.append(_spans.render_flame(dict(trace)))
    return "\n".join(lines)
