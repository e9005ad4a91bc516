"""In-memory span recorder and the arithmetic the benchmark reports from it.

A span is one call into a layer: its name, start and end on the shared
monotonic clock, the id of the span that enclosed it, and the id of the
op (or set-up pass) it belongs to.  Spans stay in memory and are written
out as JSON by the benchmark when a run ends.

When ``tracemalloc`` is tracing, a span with no child spans also records
the peak traced bytes above its entry level.  Only leaf spans get a peak,
because measuring one resets the process-wide peak that an enclosing
span would need.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from contextlib import contextmanager


def now() -> float:
    """CLOCK_MONOTONIC is system-wide on Linux, so parent and child agree."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Recorder:
    """Collects spans and counts; a disabled recorder records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, op: str):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent["leaf"] = False
        rec = {"id": len(self.spans), "name": name, "op": op,
               "parent": parent["id"] if parent else None, "leaf": True}
        self.spans.append(rec)
        self._open.append(rec)
        tracing = tracemalloc.is_tracing()
        if tracing:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        rec["start"] = now()
        try:
            yield
        finally:
            rec["end"] = now()
            if tracing and rec["leaf"]:
                rec["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
            self._open.pop()

    def count(self, name: str, value: int) -> None:
        """Record a size at a call boundary; a count must repeat exactly."""
        if not self.enabled:
            return
        value = int(value)
        old = self.counts.setdefault(name, value)
        if old != value:
            raise ValueError(f"count {name} changed from {old} to {value}")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def coverage(spans: list[dict], root: str = "op") -> float:
    """Share of the wall time of spans named `root` that child spans cover."""
    selfs = self_times(spans)
    roots = [s for s in spans if s["name"] == root]
    total = sum(s["end"] - s["start"] for s in roots)
    if total <= 0:
        return 0.0
    return sum((s["end"] - s["start"]) - selfs[s["id"]] for s in roots) / total


def median_durations(spans: list[dict]) -> dict[str, float]:
    by_name: dict[str, list[float]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s["end"] - s["start"])
    return {name: statistics.median(v) for name, v in by_name.items()}


def peak_bytes(spans: list[dict]) -> dict[str, int]:
    """Largest recorded peak per span name, over leaf spans."""
    out: dict[str, int] = {}
    for s in spans:
        if "peak_bytes" in s:
            out[s["name"]] = max(out.get(s["name"], 0), s["peak_bytes"])
    return out
