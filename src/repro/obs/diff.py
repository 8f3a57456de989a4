"""Benchmark and trace regression diffing.

* :func:`diff_benchmarks` — compare two ``benchmarks/e2e/run.py
  --out`` documents workload by workload, each metric the median
  across the document's sets;
* :func:`diff_traces` — compare two ``--trace`` files per stage
  (aggregate wall-ms by span name), the engine behind
  ``darklight stats --compare``;
* :func:`render_diff` / :func:`render_trace_diff` — the human tables.

Metric direction is inferred from the name: ``*_s``/``*_ms``/
``*_kb``/``*_mb``/``*_bytes`` are lower-is-better, ``*_speedup`` /
``*_per_s`` / ``*_throughput`` are higher-is-better; integer metrics
are deterministic counts that must not change; anything else
(fractions) is compared but never gated.  A regression is a
worsening of more than ``threshold`` relative to the old value
(default 20%, the CI gate), ignoring metrics whose old value sits
below ``min_value`` — sub-millisecond timings are scheduler noise,
not signal.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ConfigurationError, DatasetError
from repro.obs import spans as _spans

__all__ = [
    "metric_direction",
    "diff_metrics",
    "diff_benchmarks",
    "diff_traces",
    "render_diff",
    "render_trace_diff",
    "DEFAULT_THRESHOLD",
]

#: Relative worsening tolerated before a metric counts as a
#: regression (the CI gate uses this default).
DEFAULT_THRESHOLD = 0.20

_LOWER_SUFFIXES = ("_s", "_ms", "_us", "_kb", "_mb", "_bytes")
_HIGHER_SUFFIXES = ("_speedup", "_per_s", "_throughput", "_auc",
                    "_accuracy", "_precision", "_recall")


def metric_direction(name: str) -> Optional[str]:
    """``"lower"``/``"higher"`` is better, or ``None`` (ungated)."""
    lowered = name.lower()
    if lowered.endswith(_HIGHER_SUFFIXES):
        return "higher"
    if lowered.endswith(_LOWER_SUFFIXES):
        return "lower"
    return None


def diff_metrics(old: Mapping[str, Any], new: Mapping[str, Any],
                 threshold: float = DEFAULT_THRESHOLD,
                 min_value: float = 1e-3) -> List[Dict[str, Any]]:
    """Per-metric deltas between two flat numeric mappings.

    Returns one entry per shared numeric metric, sorted by name:
    ``{"metric", "old", "new", "delta", "ratio", "direction",
    "regressed"}``.  ``ratio`` is ``new / old`` (``None`` when the old
    value is ~0).  A metric that is an integer on both sides is a
    count: its direction is ``"equal"`` and any change regresses it.
    """
    if threshold < 0:
        raise ConfigurationError(
            f"threshold must be >= 0, got {threshold}")
    entries: List[Dict[str, Any]] = []
    for name in sorted(set(old) & set(new)):
        old_value, new_value = old[name], new[name]
        if isinstance(old_value, bool) or isinstance(new_value, bool) \
                or not isinstance(old_value, (int, float)) \
                or not isinstance(new_value, (int, float)):
            continue
        counted = isinstance(old_value, int) and isinstance(new_value, int)
        direction = "equal" if counted else metric_direction(name)
        ratio = (new_value / old_value) if abs(old_value) > 1e-12 \
            else None
        regressed = counted and old_value != new_value
        if not counted and direction is not None and ratio is not None \
                and abs(old_value) >= min_value:
            if direction == "lower":
                regressed = ratio > 1.0 + threshold
            else:
                regressed = ratio < 1.0 - threshold
        entries.append({
            "metric": name,
            "old": old_value,
            "new": new_value,
            "delta": new_value - old_value,
            "ratio": ratio,
            "direction": direction,
            "regressed": regressed,
        })
    return entries


def _workload_rows(document: Mapping[str, Any], side: str,
                   ) -> Dict[str, Dict[str, Any]]:
    """Per-workload metrics of one ``benchmarks/e2e/run.py --out``
    document, each the median across its sets (``median_low`` for
    integers, so counts stay counts)."""
    runs = document.get("runs")
    results = [r for rs in runs for r in rs] if isinstance(runs, list) \
        and all(isinstance(rs, list) for rs in runs) else []
    if not results or "seed" not in document or "smoke" not in document \
            or not all(isinstance(r, Mapping)
                       and isinstance(r.get("workload"), str)
                       and isinstance(r.get("metrics"), Mapping)
                       for r in results):
        raise DatasetError(f"{side} is not end-to-end benchmark output "
                           f"(benchmarks/e2e/run.py --out)")
    sets: Dict[str, List[Mapping[str, Any]]] = {}
    for result in results:
        sets.setdefault(result["workload"], []).append(result["metrics"])
    rows: Dict[str, Dict[str, Any]] = {}
    for workload, metrics in sets.items():
        rows[workload] = row = {}
        for name in metrics[0]:
            values = [m[name] for m in metrics if name in m]
            if all(isinstance(v, int) for v in values):
                row[name] = statistics.median_low(values)
            elif all(isinstance(v, (int, float)) for v in values):
                row[name] = statistics.median(values)
    return rows


def diff_benchmarks(old: Mapping[str, Any], new: Mapping[str, Any],
                    threshold: float = DEFAULT_THRESHOLD,
                    min_value: float = 1e-3) -> Dict[str, Any]:
    """Compare two end-to-end benchmark documents workload by workload.

    Both must come from ``benchmarks/e2e/run.py --out`` with the same
    ``seed`` and ``smoke``, else :class:`DatasetError`.  Workloads on
    only one side are reported (``only_old`` / ``only_new``) but do
    not gate.  ``regressions`` lists the timings past *threshold*;
    ``mismatches`` lists the counts that changed.
    """
    old_rows = _workload_rows(old, "OLD")
    new_rows = _workload_rows(new, "NEW")
    for field in ("seed", "smoke"):
        if old[field] != new[field]:
            raise DatasetError(
                f"cannot compare runs with different {field}: "
                f"{old[field]!r} vs {new[field]!r}")
    rows: List[Dict[str, Any]] = []
    regressions: List[Dict[str, Any]] = []
    mismatches: List[Dict[str, Any]] = []
    for workload in (w for w in old_rows if w in new_rows):
        entries = diff_metrics(old_rows[workload], new_rows[workload],
                               threshold=threshold, min_value=min_value)
        rows.append({"key": workload, "entries": entries})
        for entry in entries:
            if entry["regressed"]:
                gated = mismatches if entry["direction"] == "equal" \
                    else regressions
                gated.append({**entry, "key": workload})
    return {
        "threshold": threshold,
        "rows": rows,
        "regressions": regressions,
        "mismatches": mismatches,
        "only_old": [w for w in old_rows if w not in new_rows],
        "only_new": [w for w in new_rows if w not in old_rows],
    }


def render_diff(result: Mapping[str, Any]) -> str:
    """Human-readable report of a :func:`diff_benchmarks` result."""
    lines: List[str] = []
    threshold = result.get("threshold", DEFAULT_THRESHOLD)
    for row in result.get("rows", ()):
        lines.append(row["key"])
        for entry in row["entries"]:
            ratio = entry["ratio"]
            ratio_text = f"{ratio:>7.3f}x" if ratio is not None \
                else "     n/a"
            flag = ""
            if entry["regressed"]:
                flag = "  MISMATCH" if entry["direction"] == "equal" \
                    else "  REGRESSION"
            gate = {"lower": "↓", "higher": "↑", "equal": "="}.get(
                entry["direction"] or "", " ")
            lines.append(
                f"  {entry['metric']:<36} {gate} "
                f"{entry['old']:>12.6g} -> {entry['new']:>12.6g} "
                f"{ratio_text}{flag}")
        lines.append("")
    for side, label in (("only_old", "only in OLD"),
                        ("only_new", "only in NEW")):
        for key in result.get(side, ()):
            lines.append(f"{label}: {key}")
    n_regressions = len(result.get("regressions", ()))
    lines.append(
        f"{n_regressions} regression(s) beyond "
        f"{threshold:.0%} threshold, "
        f"{len(result.get('mismatches', ()))} count mismatch(es)")
    return "\n".join(lines)


def diff_traces(old: Mapping[str, Any], new: Mapping[str, Any],
                threshold: float = DEFAULT_THRESHOLD,
                min_value: float = 1.0) -> Dict[str, Any]:
    """Per-stage wall-time comparison of two trace documents.

    Aggregates each trace by span name (as ``darklight stats`` does)
    and diffs total wall ms per stage; stages whose old total is under
    *min_value* ms never gate.
    """
    old_totals = _spans.aggregate_spans(dict(old))
    new_totals = _spans.aggregate_spans(dict(new))
    stages: List[Dict[str, Any]] = []
    regressions: List[Dict[str, Any]] = []
    for name in sorted(set(old_totals) & set(new_totals)):
        old_ms = old_totals[name]["wall_ms"]
        new_ms = new_totals[name]["wall_ms"]
        ratio = (new_ms / old_ms) if old_ms > 1e-12 else None
        regressed = (ratio is not None and old_ms >= min_value
                     and ratio > 1.0 + threshold)
        entry = {
            "stage": name,
            "old_wall_ms": old_ms,
            "new_wall_ms": new_ms,
            "old_calls": int(old_totals[name]["calls"]),
            "new_calls": int(new_totals[name]["calls"]),
            "ratio": ratio,
            "regressed": regressed,
        }
        stages.append(entry)
        if regressed:
            regressions.append(entry)
    return {
        "threshold": threshold,
        "stages": stages,
        "regressions": regressions,
        "only_old": sorted(set(old_totals) - set(new_totals)),
        "only_new": sorted(set(new_totals) - set(old_totals)),
    }


def render_trace_diff(result: Mapping[str, Any]) -> str:
    """Human-readable report of a :func:`diff_traces` result."""
    lines = [f"{'stage':<40} {'old ms':>12} {'new ms':>12} "
             f"{'ratio':>8}"]
    lines.append("-" * len(lines[0]))
    for entry in result.get("stages", ()):
        ratio = entry["ratio"]
        ratio_text = f"{ratio:.3f}x" if ratio is not None else "n/a"
        flag = "  REGRESSION" if entry["regressed"] else ""
        lines.append(
            f"{entry['stage']:<40} {entry['old_wall_ms']:>12.2f} "
            f"{entry['new_wall_ms']:>12.2f} {ratio_text:>8}{flag}")
    for side, label in (("only_old", "only in OLD"),
                        ("only_new", "only in NEW")):
        for name in result.get(side, ()):
            lines.append(f"{label}: {name}")
    lines.append(f"{len(result.get('regressions', ()))} stage "
                 f"regression(s) beyond "
                 f"{result.get('threshold', DEFAULT_THRESHOLD):.0%}")
    return "\n".join(lines)
