"""Self-time arithmetic of the benchmark's span tracer."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, self_times, summarize  # noqa: E402


def traced_tree():
    """main(read(), train(step(), step(adam()))) on a scripted clock."""
    ticks = iter([0, 10, 30, 40, 45, 55, 60, 62, 70, 80, 90, 100])
    tracer = Tracer(clock=lambda: next(ticks))
    adam = tracer.wrap("adam", lambda: None,
                       counter=lambda t, args, kwargs, result: t.count("elems", 3))
    step = tracer.wrap("step", lambda inner: inner())
    read = tracer.wrap("read", lambda: None)

    def _train():
        step(lambda: None)
        step(adam)

    train = tracer.wrap("train", _train)

    def _main():
        read()
        train()

    tracer.wrap("main", _main)()
    return tracer


def test_spans_record_name_interval_and_parent():
    spans = traced_tree().spans
    assert spans == [
        ["main", 0, 100, -1],
        ["read", 10, 30, 0],
        ["train", 40, 90, 0],
        ["step", 45, 55, 2],
        ["step", 60, 80, 2],
        ["adam", 62, 70, 4],
    ]


def test_self_time_subtracts_direct_children_only():
    tracer = traced_tree()
    assert self_times(tracer.spans) == [30, 20, 20, 10, 12, 8]
    summary = summarize(tracer.spans)
    assert summary["step"] == {"self_ns": 22, "calls": 2}
    assert sum(e["self_ns"] for e in summary.values()) == 100
    assert tracer.counters == {"elems": 3}


def test_overlapping_and_overhanging_children_count_once():
    spans = [
        ["parent", 0, 100, -1],
        ["a", 10, 50, 0],
        ["b", 40, 60, 0],  # overlaps a by 10
        ["c", 90, 120, 0],  # runs past the parent's end
    ]
    assert self_times(spans)[0] == 100 - 50 - 10


def test_span_closes_when_the_call_raises():
    ticks = iter([0, 5])
    tracer = Tracer(clock=lambda: next(ticks))

    def boom():
        raise ValueError("x")

    try:
        tracer.wrap("boom", boom)()
    except ValueError:
        pass
    assert tracer.spans == [["boom", 0, 5, -1]]
    assert self_times(tracer.spans) == [5]
