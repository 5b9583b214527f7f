"""Span arithmetic and cross-thread request propagation of the tracer."""

from __future__ import annotations

import threading

import pytest

from perfbench.analysis import PER_LAYER, layer_metrics
from perfbench.tracing import Span, Tracer, covered, self_times


def test_covered_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1, 3), (2, 5), (8, 12)]) == pytest.approx(6.0)
    assert covered(2.0, 4.0, [(0, 10)]) == pytest.approx(2.0)
    assert covered(0.0, 1.0, [(2, 3)]) == 0.0


def test_self_time_on_a_hand_built_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping, as when
    # a child runs in another thread) and c [9, 12] (clipped to the root);
    # a has a grandchild g [2, 3].
    spans = [
        Span(1, "root", "x", 0.0, 10.0),
        Span(2, "a", "x", 1.0, 4.0, parent=1),
        Span(3, "b", "x", 3.0, 6.0, parent=1),
        Span(4, "c", "x", 9.0, 12.0, parent=1),
        Span(5, "g", "x", 2.0, 3.0, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)  # union of a, b = [1, 6]; c covers [9, 10]
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)


def test_request_id_travels_with_the_handed_off_object():
    tracer = Tracer()
    ticket = object()
    with tracer.request("r-7"), tracer.span("submit", "server.queue"):
        tracer.handoff(ticket)
    seen = {}

    def worker():
        with tracer.adopt(ticket) as rid, tracer.span("work", "server.service"):
            seen["rid"] = rid

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert seen["rid"] == "r-7"
    assert by_name["work"].rid == "r-7"
    assert by_name["work"].parent == by_name["submit"].sid
    # Nothing leaks into the next request on this thread.
    assert tracer.context() == (None, None)


def test_layer_metrics_reports_every_metric_and_explains_latency():
    spans = [
        Span(1, "service.batch", "server.service", 0.0, 0.010, rid="q"),
        Span(2, "session.run", "session", 0.001, 0.009, parent=1, rid="q",
             tag={"backend": "hybrid", "engine": "serial", "dim": 64}),
        Span(3, "runtime.execute", "runtime", 0.002, 0.008, parent=2, rid="q",
             tag={"dim": 64}),
        Span(4, "queue.result", "server.queue", 0.0, 0.010, rid="q", wait=True),
    ]
    metrics, _ = layer_metrics(spans, {}, {"q": {"latency_ms": 10.0}})
    assert set(metrics) == {name for name, _ in PER_LAYER}
    assert metrics["runtime.backend_share.hybrid.serial"] == 1.0
    assert metrics["runtime.execute_ms_p50"] == pytest.approx(6.0)
    assert metrics["runtime.grid_bytes"] == 64 * 64 * 8
    # service 2 ms + session 2 ms + runtime 6 ms; the wait span is excluded.
    assert metrics["trace.path_share_p50"] == pytest.approx(1.0)
