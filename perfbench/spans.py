"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, a start and end (``perf_counter`` seconds), the id
of the span that caused it, and the request it belongs to.  Spans stay
in memory while the benchmark measures and are written out once the
run ends, so recording one costs two clock reads and a list append.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class Tracer:
    """Collects spans; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request: Optional[str] = None,
    ) -> Optional[int]:
        """Record a finished span; returns its id (``None`` if disabled)."""
        if not self.enabled:
            return None
        if parent is None and self._open:
            parent = self._open[-1]
        span_id = len(self.spans)
        self.spans.append({
            "id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "request": request,
        })
        return span_id

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[None]:
        """Time the body as a span nested under the innermost open one."""
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        span_id = self.add(name, time.perf_counter(), 0.0, parent, request)
        self._open.append(span_id)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[span_id]["end"] = time.perf_counter()


def write(spans: Sequence[Dict[str, object]], path: Path) -> None:
    """Write spans as one JSON document, once the run has ended."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"spans": list(spans)}))


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Each span with ``self``: its duration minus what its children cover.

    Child intervals are clipped to the parent and merged first, so
    overlapping children are not subtracted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out = []
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(span["id"], [])
            if min(e, end) > max(s, start)
        ]
        out.append({**span, "self": (end - start) - _covered(clipped)})
    return out


def self_time_by_name(
    spans: Sequence[Dict[str, object]]
) -> Dict[str, List[float]]:
    """Self times grouped by span name, in recording order."""
    grouped: Dict[str, List[float]] = {}
    for span in self_times(spans):
        grouped.setdefault(span["name"], []).append(span["self"])
    return grouped
