"""Span arithmetic and summary statistics on synthetic data."""

import statistics

import pytest

from spans import Tracer, median_quartiles, outermost, self_times


def span(i, name, start, end, parent=None, **attrs):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "run": "r", "attrs": attrs}


def test_self_time_subtracts_children():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, 0),
        span(2, "b", 5.0, 6.0, 0),
        span(3, "c", 2.0, 3.0, 1),
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert st[1] == pytest.approx(3.0 - 1.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 5.0, 0),
        span(2, "b", 3.0, 7.0, 0),  # overlaps a on [3, 5]
        span(3, "c", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_outermost_skips_nested_calls_of_the_same_names():
    spans = [
        span(0, "f", 0.0, 10.0),
        span(1, "g", 1.0, 2.0, 0),
        span(2, "f", 1.2, 1.8, 1),
        span(3, "f", 11.0, 12.0),
    ]
    assert [s["id"] for s in outermost(spans, ["f"])] == [0, 3]
    assert [s["id"] for s in outermost(spans, ["f", "g"])] == [0, 3]
    assert [s["id"] for s in outermost(spans, ["g"])] == [1]


def test_tracer_links_parents_and_keeps_run_id():
    tr = Tracer("run-1")
    a = tr.begin("a")
    b = tr.begin("b")
    tr.end(b, {"n": 3})
    tr.end(a)
    c = tr.begin("c")
    tr.end(c)
    recs = tr.records()
    assert [(r["name"], r["parent"]) for r in recs] == [("a", None), ("b", 0), ("c", None)]
    assert recs[1]["attrs"] == {"n": 3}
    assert all(r["run"] == "run-1" and r["end"] >= r["start"] for r in recs)


def test_tracer_rejects_out_of_order_end():
    tr = Tracer("r")
    a = tr.begin("a")
    tr.begin("b")
    with pytest.raises(RuntimeError):
        tr.end(a)


def test_median_and_quartiles_match_statistics():
    vals = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 5.9, 2.0]
    med, q1, q3 = median_quartiles(vals)
    assert med == statistics.median(vals)
    assert (q1, q3) == tuple(statistics.quantiles(vals, n=4)[::2])
    assert median_quartiles([2.5]) == (2.5, 2.5, 2.5)
