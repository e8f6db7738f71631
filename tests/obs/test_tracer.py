"""The tracer: span trees, tail-based sampling, the bounded ring.

Pure unit tests with a fake clock — the end-to-end propagation tests
(the edge, byte-identity) live in
``tests/api/test_tracing.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import ApiError, RequestContext
from repro.obs import (
    Tracer,
    default_tracer,
    set_default_tracer,
    traced,
)


class FakeClock:
    """Deterministic monotonic clock (seconds, like time.monotonic)."""

    def __init__(self) -> None:
        self.now_s = 1000.0

    def __call__(self) -> float:
        return self.now_s

    def tick_ms(self, ms: float) -> None:
        self.now_s += ms / 1000.0


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture(autouse=True)
def _isolated_tracing_state():
    """No ambient span or default tracer may leak between tests."""
    from repro.obs.tracer import _CURRENT_SPAN

    token = _CURRENT_SPAN.set(None)
    try:
        yield
    finally:
        _CURRENT_SPAN.reset(token)
        set_default_tracer(None)


def run_request(tracer, clock, *, request_id=None, duration_ms=1.0,
                endpoint="search", fail_with=None):
    """One root + one child span, advancing the fake clock."""
    ctx = RequestContext(request_id=request_id or "req-x",
                         tags={"endpoint": endpoint}, tracer=tracer)
    with tracer.span("edge.request", context=ctx):
        with tracer.span("gateway", context=ctx):
            clock.tick_ms(duration_ms)
            if fail_with is not None:
                raise fail_with
    return ctx


class TestSampling:
    def test_first_request_per_endpoint_is_kept_as_slow(self, clock):
        tracer = Tracer(clock=clock)
        run_request(tracer, clock, request_id="req-1")
        trace = tracer.export("req-1")
        assert trace is not None
        assert trace["sampled"] == "slow"
        assert trace["endpoint"] == "search"

    def test_fast_requests_drop_once_the_heap_ratchets(self, clock):
        tracer = Tracer(clock=clock, slowest_per_endpoint=2)
        for i in range(2):
            run_request(tracer, clock, request_id=f"req-{i}",
                        duration_ms=50.0)
        run_request(tracer, clock, request_id="req-fast", duration_ms=1.0)
        assert tracer.export("req-fast") is None
        stats = tracer.stats()
        assert stats["traces_dropped"] == 1
        assert stats["traces_sampled"] == 2

    def test_slowest_ever_is_always_kept(self, clock):
        tracer = Tracer(clock=clock, slowest_per_endpoint=1)
        run_request(tracer, clock, request_id="req-1", duration_ms=10.0)
        run_request(tracer, clock, request_id="req-2", duration_ms=100.0)
        assert tracer.export("req-2") is not None

    def test_errors_always_kept_even_when_fast(self, clock):
        tracer = Tracer(clock=clock, slowest_per_endpoint=1)
        run_request(tracer, clock, request_id="req-slow", duration_ms=99.0)
        with pytest.raises(ApiError):
            run_request(
                tracer, clock, request_id="req-err", duration_ms=0.01,
                fail_with=ApiError("backend_error", "boom"),
            )
        trace = tracer.export("req-err")
        assert trace is not None
        assert trace["sampled"] == "error"
        failed = [s for s in trace["spans"] if s["status"] == "error"]
        assert failed and failed[0]["detail"] == "backend_error"

    def test_deadline_expiry_sampled_as_deadline(self, clock):
        tracer = Tracer(clock=clock)
        with pytest.raises(ApiError):
            run_request(
                tracer, clock, request_id="req-d",
                fail_with=ApiError("deadline_exceeded", "too slow"),
            )
        assert tracer.export("req-d")["sampled"] == "deadline"

    def test_per_endpoint_heaps_are_independent(self, clock):
        tracer = Tracer(clock=clock, slowest_per_endpoint=1)
        run_request(tracer, clock, request_id="req-1", duration_ms=100.0,
                    endpoint="search")
        # Much faster, but the first "recommend" ever seen — kept.
        run_request(tracer, clock, request_id="req-2", duration_ms=1.0,
                    endpoint="recommend")
        assert tracer.export("req-2") is not None


class TestSpanTree:
    def test_parent_ids_nest_and_ids_share_the_trace(self, clock):
        tracer = Tracer(clock=clock)
        ctx = RequestContext(request_id="req-7", tracer=tracer,
                             tags={"endpoint": "search"})
        with tracer.span("edge.request", context=ctx):
            with tracer.span("gateway", context=ctx):
                clock.tick_ms(1.0)
            with tracer.span("flush", context=ctx):
                clock.tick_ms(1.0)
        spans = tracer.export("req-7")["spans"]
        assert [s["name"] for s in spans] == [
            "edge.request", "gateway", "flush",
        ]
        root = spans[0]
        assert root["parent_id"] is None
        assert all(s["parent_id"] == root["span_id"] for s in spans[1:])
        assert all(s["span_id"].startswith("req-7:") for s in spans)

    def test_span_still_open_at_root_close_is_cancelled(self, clock):
        tracer = Tracer(clock=clock)
        ctx = RequestContext(request_id="req-5", tracer=tracer,
                             tags={"endpoint": "search"})
        root_handle = tracer.span("edge.request", context=ctx)
        with root_handle:
            # Created but never closed — the worker was abandoned
            # mid-flight when the edge answered 504.
            tracer.span("edge.dispatch", context=ctx,
                        parent=root_handle.span)
            clock.tick_ms(2.0)
            ctx.cancel("deadline expired")
        spans = tracer.export("req-5")["spans"]
        dispatch = next(s for s in spans if s["name"] == "edge.dispatch")
        assert dispatch["status"] == "cancelled"
        assert dispatch["detail"] == "deadline expired"
        # Closed at the root's end, not left dangling.
        assert dispatch["duration_ms"] == pytest.approx(2.0, abs=0.01)

    def test_root_inherits_context_tags(self, clock):
        tracer = Tracer(clock=clock)
        run_request(tracer, clock, request_id="req-t")
        root = tracer.export("req-t")["spans"][0]
        assert root["tags"]["endpoint"] == "search"

    def test_span_cap_drops_excess_spans_not_the_trace(self, clock):
        tracer = Tracer(clock=clock, max_spans_per_trace=3)
        ctx = RequestContext(request_id="req-c", tracer=tracer,
                             tags={"endpoint": "search"})
        with tracer.span("edge.request", context=ctx):
            for _ in range(5):
                with tracer.span("probe", context=ctx):
                    clock.tick_ms(0.1)
        trace = tracer.export("req-c")
        assert len(trace["spans"]) == 3
        assert tracer.stats()["spans_dropped"] == 3

    def test_late_span_after_finalize_is_counted_not_recorded(self, clock):
        tracer = Tracer(clock=clock)
        ctx = RequestContext(request_id="req-l", tracer=tracer,
                             tags={"endpoint": "search"})
        with tracer.span("edge.request", context=ctx):
            clock.tick_ms(1.0)
        n_spans = len(tracer.export("req-l")["spans"])
        with tracer.span("straggler", context=ctx):
            clock.tick_ms(1.0)
        assert len(tracer.export("req-l")["spans"]) == n_spans
        assert tracer.stats()["late_spans"] == 1


class TestRing:
    def test_capacity_evicts_oldest(self, clock):
        tracer = Tracer(clock=clock, capacity=2, slowest_per_endpoint=64)
        for i in range(4):
            run_request(tracer, clock, request_id=f"req-{i}",
                        duration_ms=10.0 * (i + 1))
        assert tracer.export("req-0") is None
        assert tracer.export("req-1") is None
        assert tracer.export("req-3") is not None
        stats = tracer.stats()
        assert stats["buffered"] == 2
        assert stats["traces_evicted"] == 2

    def test_latest_and_trace_ids(self, clock):
        tracer = Tracer(clock=clock)
        assert tracer.latest() is None
        for i in range(3):
            run_request(tracer, clock, request_id=f"req-{i}",
                        duration_ms=10.0 * (i + 1))
        assert tracer.latest()["request_id"] == "req-2"
        ids = tracer.trace_ids()
        assert [t[0] for t in ids] == ["req-0", "req-1", "req-2"]

    def test_abandoned_open_traces_are_bounded(self, clock):
        tracer = Tracer(clock=clock, capacity=2)
        for i in range(20):
            # Root span created but never closed (edge thread died).
            ctx = RequestContext(request_id=f"req-{i}", tracer=tracer,
                                 tags={"endpoint": "search"})
            tracer.span("edge.request", context=ctx)
        assert tracer.stats()["open"] <= tracer.capacity * 4

    def test_validates_constructor_args(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)
        with pytest.raises(ValueError):
            Tracer(slowest_per_endpoint=0)


class TestTracedHelper:
    def test_no_tracer_anywhere_is_a_noop(self):
        set_default_tracer(None)
        handle = traced("anything")
        assert handle.span is None
        with handle as h:
            h.tag("k", "v")  # must not raise

    def test_default_tracer_collects_background_traces(self, clock):
        tracer = Tracer(clock=clock)
        set_default_tracer(tracer)
        try:
            with traced("updater.batch_fold", tags={"generation": "1"}):
                clock.tick_ms(5.0)
            trace = tracer.latest()
            assert trace is not None
            assert trace["request_id"].startswith("bg-")
            assert trace["endpoint"] == "updater.batch_fold"
            assert default_tracer() is tracer
        finally:
            set_default_tracer(None)

    def test_context_tracer_wins_over_default(self, clock):
        ambient = Tracer(clock=clock)
        ctx_tracer = Tracer(clock=clock)
        set_default_tracer(ambient)
        try:
            ctx = RequestContext(request_id="req-w", tracer=ctx_tracer,
                                 tags={"endpoint": "search"})
            with traced("edge.request", context=ctx):
                clock.tick_ms(1.0)
            assert ctx_tracer.export("req-w") is not None
            assert ambient.latest() is None
        finally:
            set_default_tracer(None)

    def test_ambient_context_parents_nested_spans_across_threads(self, clock):
        tracer = Tracer(clock=clock)
        seen = {}

        def worker():
            # A fresh thread has no ambient span: its trace is its own.
            ctx = RequestContext(request_id="req-thread", tracer=tracer,
                                 tags={"endpoint": "search"})
            with tracer.span("edge.request", context=ctx):
                with traced("inner", context=ctx) as h:
                    seen["parent"] = h.span.parent_id
                    clock.tick_ms(1.0)

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        spans = tracer.export("req-thread")["spans"]
        assert seen["parent"] == spans[0]["span_id"]
