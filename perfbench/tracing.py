"""Spans recorded around the benchmark's calls into each module.

A span has a name ``<layer>.<call>``, start and end times, the id of the
span that was open when it started, the op it belongs to, the run phase
(setup, op, census, probe, coverage), a work count (points evaluated),
free-form attributes and an error flag. Spans stay in memory and are
written out when the run ends. Spans are recorded in the benchmark's own
files only; the program under test is unchanged.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def note(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: a span costs one method call and records nothing."""

    enabled = False

    def __init__(self) -> None:
        self.op = None
        self.phase = None

    def span(self, name: str, count: float = 0.0):
        return _NULL_SPAN


class _Span:
    __slots__ = ("tracer", "name", "count", "attrs", "sid", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str, count: float) -> None:
        self.tracer = tracer
        self.name = name
        self.count = count
        self.attrs = {}

    def note(self, **attrs) -> None:
        self.attrs.update(attrs)

    def __enter__(self):
        tr = self.tracer
        tr.next_id += 1
        self.sid = tr.next_id
        self.parent = tr.stack[-1] if tr.stack else None
        tr.stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        tr = self.tracer
        tr.stack.pop()
        tr.spans.append({
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": end,
            "parent": self.parent,
            "op": tr.op,
            "phase": tr.phase,
            "count": self.count,
            "attrs": self.attrs,
            "error": exc_type.__name__ if exc_type is not None else None,
        })
        return False


class Tracer:
    """Tracing on: every span is kept in memory until ``write``."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.op = None
        self.phase = None

    def span(self, name: str, count: float = 0.0) -> _Span:
        return _Span(self, name, count)

    def record(self, name: str, seconds: float, **attrs) -> None:
        """A span measured elsewhere, such as inside a child process."""
        now = time.perf_counter()
        with self.span(name) as span:
            span.note(**attrs)
        self.spans[-1]["start"] = now - seconds
        self.spans[-1]["end"] = now

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_table(spans: list[dict]) -> dict[str, dict]:
    """Self time (s), span count and errors per layer over the timed ops.

    The layer is the part of the span name before the first dot; "op" is
    the benchmark's own share of each op (input handling between calls).
    """
    spans = [s for s in spans if s["phase"] == "op"]
    own = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        row = table.setdefault(layer, {"self_s": 0.0, "spans": 0, "errors": 0})
        row["self_s"] += own[s["id"]]
        row["spans"] += 1
        row["errors"] += s["error"] is not None
    return table


class SpanIndex:
    """Span lookups by name, preferring the workload's own spans.

    Spans of the "coverage" phase come from a fixed probe that runs every
    layer once; they are used only for a call the workload never made, so
    every per-layer metric has a value on every workload.
    """

    def __init__(self, spans: list[dict]) -> None:
        self.own: dict[str, list[dict]] = {}
        self.cover: dict[str, list[dict]] = {}
        for s in spans:
            bucket = self.cover if s["phase"] == "coverage" else self.own
            bucket.setdefault(s["name"], []).append(s)
        self.sources: dict[str, str] = {}

    def get(self, metric: str, *names: str) -> list[dict]:
        found = [s for n in names for s in self.own.get(n, [])]
        if found:
            self.sources[metric] = "workload"
            return found
        self.sources[metric] = "coverage"
        return [s for n in names for s in self.cover.get(n, [])]

    def ok(self, metric: str, *names: str) -> list[dict]:
        return [s for s in self.get(metric, *names) if s["error"] is None]

    def median_ms(self, metric: str, *names: str) -> float:
        return 1e3 * statistics.median(s["end"] - s["start"] for s in self.ok(metric, *names))

    def median_attr(self, metric: str, name: str, key: str) -> float:
        return float(statistics.median(s["attrs"][key] for s in self.ok(metric, name)))

    def errors(self, metric: str, *names: str) -> int:
        return sum(s["error"] is not None for s in self.get(metric, *names))

    def per_point_us(self, metric: str, name: str) -> float:
        spans = [s for s in self.ok(metric, name) if s["count"] > 0]
        return 1e6 * sum(s["end"] - s["start"] for s in spans) / sum(s["count"] for s in spans)
