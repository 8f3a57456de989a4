"""Spans recorded from outside the program, around calls into its layers.

The benchmark never edits the code it measures.  For the traced op it
wraps the functions and methods each layer exposes, at the module or
class attribute their callers look them up through, with a timer that
records a span: name, start, end and the span that was open when it
began.  The op itself runs unchanged, so its output must equal an
untraced run's, and the cost of tracing is the difference between the
two runs' wall times.

A layer's *self time* is its span's duration minus the part its child
spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``(owner, attribute, span name, observe)``: ``owner`` is a module or
#: class, ``observe(args, result)`` (or ``None``) sees every call.
Probe = Tuple[object, str, str, Optional[Callable]]


class Tracer:
    """In-memory span recorder.

    Spans are ``[id, parent id, name, start, end]`` lists in start
    order, so a parent always precedes its children.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [len(self.spans), parent, name, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield record
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def probes(self, points: Iterable[Probe]):
        """Wrap every probe point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, observe in points:
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(original, name, observe))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, fn: Callable, name: str,
              observe: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        return probe

    def write(self, path: Path, extra: Dict[str, object]) -> None:
        """Write the spans (times in ms from the first span) as JSON."""
        origin = self.spans[0][3] if self.spans else 0.0
        document = dict(extra)
        document["spans"] = [
            {"id": i, "parent": parent, "name": name,
             "start_ms": round((start - origin) * 1e3, 4),
             "end_ms": round((end - origin) * 1e3, 4)}
            for i, parent, name, start, end in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=1) + "\n",
                        encoding="utf-8")


class SpanIndex:
    """Queries over a finished trace."""

    def __init__(self, spans: Sequence[list]) -> None:
        self.spans = spans
        self.ancestors: List[frozenset] = []
        for _, parent, _, _, _ in spans:
            if parent is None:
                self.ancestors.append(frozenset())
            else:
                self.ancestors.append(self.ancestors[parent]
                                      | {spans[parent][2]})

    def total(self, name: str, within: Iterable[str] = (),
              outside: Iterable[str] = ()) -> float:
        """Seconds spent in spans called *name* below a span of every
        name in *within* and below none of *outside*; a span nested in a
        same-named span is not counted twice."""
        required = frozenset(within)
        excluded = set(outside) | {name}
        seconds = 0.0
        for (_, _, span_name, start, end), above in zip(self.spans,
                                                        self.ancestors):
            if span_name == name and required <= above \
                    and not above & excluded:
                seconds += end - start
        return seconds

    def children_total(self, parent_id: int) -> float:
        """Seconds covered by the direct children of one span."""
        return sum(end - start for _, parent, _, start, end in self.spans
                   if parent == parent_id)

    def self_times(self) -> Dict[str, float]:
        """Self time per span name, summed over the whole trace."""
        child: Dict[int, float] = {}
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + end - start
        totals: Dict[str, float] = {}
        for span_id, _, name, start, end in self.spans:
            own = end - start - child.get(span_id, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals
