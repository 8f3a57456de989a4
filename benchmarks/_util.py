"""Shared helpers for the benchmark suite.

Every bench prints the rows of the paper table/figure it reproduces and
writes the same text under ``benchmarks/results/`` so the numbers
survive pytest's output capturing (EXPERIMENTS.md is assembled from
those files).

Timing goes through :func:`timed`, a thin wrapper over the
``repro.obs`` span machinery — bench output and pipeline telemetry
share one code path instead of each bench hand-rolling a stopwatch.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence

from repro.obs.spans import Span, timer

RESULTS_DIR = Path(__file__).parent / "results"


@contextmanager
def timed(name: str, **attributes) -> Iterator[Span]:
    """Time a block with the ``repro.obs`` span clock.

    Yields the :class:`~repro.obs.spans.Span`; after the block exits
    its ``wall_ms``/``cpu_ms`` carry the measured durations.  When
    tracing is enabled (``darklight --trace``-style runs of the bench
    suite) the span also lands in the process trace.
    """
    with timer(name, **attributes) as measured:
        yield measured


def seconds(span_obj: Span) -> float:
    """A finished span's wall time in seconds (bench tables use s)."""
    return span_obj.wall_ms / 1000.0


def emit(name: str, lines: Iterable[str]) -> str:
    """Print *lines* and persist them to ``benchmarks/results/<name>.txt``."""
    text = "\n".join(lines)
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n",
                                             encoding="utf-8")
    return text


def table(headers: Sequence[str],
          rows: Iterable[Sequence[object]]) -> List[str]:
    """Render an aligned text table."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in str_rows)
    return out


def pct(value: float) -> str:
    """Format a fraction as a percentage string."""
    return f"{value * 100:.1f}%"
