"""In-memory spans, their self time, and the summary statistics the
benchmark reports."""

from __future__ import annotations

import statistics
import time


class Tracer:
    """Records spans in memory; ``records()`` hands them out at the end.

    A span is opened with ``begin(name)`` and closed with ``end(index)``;
    its parent is the innermost span still open when it began.  Spans run
    in one thread, one call after another.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self._spans: list[list] = []  # [name, start, end, parent, attrs]
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self._spans.append([name, time.perf_counter(), None, parent, None])
        self._open.append(len(self._spans) - 1)
        return len(self._spans) - 1

    def end(self, index: int, attrs: dict | None = None) -> None:
        span = self._spans[index]
        span[2] = time.perf_counter()
        span[4] = attrs
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {span[0]!r} closed out of order")

    def set_attrs(self, index: int, attrs: dict) -> None:
        self._spans[index][4] = attrs

    def records(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "run": self.run_id, "attrs": a or {}}
            for i, (n, s, e, p, a) in enumerate(self._spans)
        ]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e <= reach:
            continue
        total += e - max(s, reach)
        reach = e
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list] = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append(sp)
    out = {}
    for sp in spans:
        s, e = sp["start"], sp["end"]
        kids = [(max(c["start"], s), min(c["end"], e)) for c in children.get(sp["id"], [])]
        out[sp["id"]] = (e - s) - _covered([k for k in kids if k[1] > k[0]])
    return out


def outermost(spans: list[dict], names) -> list[dict]:
    """Spans named in ``names`` with no ancestor also named in ``names``, so
    their durations add up without counting nested calls twice."""
    names = set(names)
    by_id = {sp["id"]: sp for sp in spans}
    out = []
    for sp in spans:
        if sp["name"] not in names:
            continue
        p = sp["parent"]
        while p is not None and by_id[p]["name"] not in names:
            p = by_id[p]["parent"]
        if p is None:
            out.append(sp)
    return out


def median_quartiles(values) -> tuple[float, float, float]:
    """(median, first quartile, third quartile), as statistics.quantiles
    gives them with its default (exclusive) method."""
    vals = [float(v) for v in values]
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return statistics.median(vals), q1, q3

