"""Self time of nested and cross-thread spans."""

import threading

import pytest

from perfbench.tracing import Span, Tracer, covered, self_times, union_length


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def span(name, start, end, parent=None):
    return Span(name, start, end, parent=parent)


def test_union_merges_overlaps_once():
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0
    assert union_length([]) == 0.0


def test_nested_spans_on_one_thread():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer") as outer:
        clock.now = 1.0
        with tracer.span("inner") as inner:
            clock.now = 3.0
            with tracer.span("leaf") as leaf:
                clock.now = 3.5
        clock.now = 4.0
        with tracer.span("inner2"):
            clock.now = 5.0
        clock.now = 6.0
    assert inner.parent is outer and leaf.parent is inner
    selfs = self_times(tracer.spans)
    assert selfs[outer] == pytest.approx(6.0 - 2.5 - 1.0)
    assert selfs[inner] == pytest.approx(2.5 - 0.5)
    assert selfs[leaf] == pytest.approx(0.5)


def test_cross_thread_child_counts_only_where_it_overlaps():
    parent = span("executor", 0.0, 10.0)
    same_thread = span("tile", 1.0, 4.0, parent)
    # a writer-thread child overlapping the tile and outliving the parent
    other_thread = span("write", 3.0, 12.0, parent)
    selfs = self_times([parent, same_thread, other_thread])
    # covered part of [0, 10]: [1, 10] -> 9 s; overlap not subtracted twice
    assert selfs[parent] == pytest.approx(1.0)
    assert selfs[other_thread] == pytest.approx(9.0)


def test_child_after_its_cause_leaves_the_cause_whole():
    submit = span("store.submit", 0.0, 0.1)
    write = span("store.write", 0.2, 0.9, submit)
    assert self_times([submit, write])[submit] == pytest.approx(0.1)


def test_background_thread_keeps_its_causing_span():
    tracer = Tracer()
    seen = {}
    with tracer.span("submit") as cause:
        pass
    tracer.resolvers["worker"] = lambda: cause

    def work():
        with tracer.span("write") as s:
            seen["write"] = s
        with tracer.span("explicit", parent=None) as s:
            seen["explicit"] = s

    t = threading.Thread(target=work, name="worker")
    t.start()
    t.join(10)
    assert not t.is_alive()
    assert seen["write"].parent is cause
    assert seen["write"].thread == "worker"
    # a thread without a resolver starts root spans
    other = threading.Thread(target=work, name="plain")
    other.start()
    other.join(10)
    assert not other.is_alive()
    assert seen["write"].parent is None
    assert tracer.last("write") is None  # last() is per thread


def test_spans_closed_out_of_order_are_an_error():
    tracer = Tracer()
    a = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.end(a)


def test_covered_clips_to_the_window():
    spans = [span("a", -1.0, 1.0), span("b", 0.5, 3.0), span("c", 4.0, 9.0)]
    assert covered(spans, 0.0, 5.0) == pytest.approx(4.0)
