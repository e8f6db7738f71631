"""The tracer: span trees, tail-based sampling, the bounded ring.

Pure unit tests with a fake clock — the end-to-end propagation tests
(the edge, byte-identity) live in
``tests/api/test_tracing.py``.
"""

from __future__ import annotations

import gc
import threading
import weakref

import pytest

from repro.api import ApiError, RequestContext
from repro.obs import (
    Tracer,
    default_tracer,
    parse_openmetrics,
    render_openmetrics,
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
    """No default tracer may leak between tests."""
    try:
        yield
    finally:
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
        with tracer.span("edge.request", context=ctx):
            # Created but never closed — the worker was abandoned
            # mid-flight when the edge answered 504.
            tracer.span("edge.dispatch", context=ctx)
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

    def test_abandoned_open_traces_live_on_their_context(self, clock):
        """A root that never closes (its edge task died) is counted as
        open, and its records go away with its context: the tracer
        holds nothing for it."""
        tracer = Tracer(clock=clock, capacity=2)
        refs = []
        for i in range(20):
            ctx = RequestContext(request_id=f"req-{i}", tracer=tracer,
                                 tags={"endpoint": "search"})
            tracer.span("edge.request", context=ctx)
            refs.append(weakref.ref(ctx))
        del ctx
        gc.collect()
        assert all(ref() is None for ref in refs)
        stats = tracer.stats()
        assert stats["open"] == 20
        assert stats["buffered"] == 0
        assert tracer.stats()["open"] == 20  # reading stats opens nothing

    def test_validates_constructor_args(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)
        with pytest.raises(ValueError):
            Tracer(slowest_per_endpoint=0)


class TestTracedHelper:
    def test_no_tracer_anywhere_is_a_noop(self):
        set_default_tracer(None)
        handle = traced("anything")
        with handle:
            pass
        # One shared stand-in: tracing off allocates nothing.
        assert traced("other") is handle

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

    def test_ambient_context_parents_nested_spans_in_a_fresh_thread(
        self, clock
    ):
        tracer = Tracer(clock=clock)
        seen = {}

        def worker():
            # A fresh thread has no ambient context: it installs its
            # own, and a span opened without ``context=`` finds it.
            ctx = RequestContext(request_id="req-thread", tracer=tracer,
                                 tags={"endpoint": "search"})
            with ctx.use(), tracer.span("edge.request", context=ctx):
                with traced("inner") as inner:
                    seen["parent"] = inner.parent
                    clock.tick_ms(1.0)

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        spans = tracer.export("req-thread")["spans"]
        assert seen["parent"] == 0  # the root's index on the context
        assert spans[1]["parent_id"] == spans[0]["span_id"]

    def test_background_spans_nest_under_a_minted_context(self, clock):
        tracer = Tracer(clock=clock)
        set_default_tracer(tracer)
        with traced("ingest.coalesce_flush"):
            with traced("ingest.wal_append"):
                clock.tick_ms(1.0)
        with traced("updater.batch_fold"):
            clock.tick_ms(1.0)
        first, second = tracer.trace_ids()
        assert (first[0], second[0]) == ("bg-1", "bg-2")
        spans = tracer.export("bg-1")["spans"]
        assert [s["name"] for s in spans] == [
            "ingest.coalesce_flush", "ingest.wal_append",
        ]
        assert spans[1]["parent_id"] == "bg-1:1"
        # The minted context is ambient only while its root is open.
        from repro.api.context import current_context

        assert current_context() is None


class TestLateSpans:
    def test_a_span_after_a_dropped_trace_is_late_not_a_phantom(
        self, clock
    ):
        """A straggler on a dropped request's context is refused: it
        neither becomes a trace of its own nor enters the slow heap."""
        tracer = Tracer(clock=clock, slowest_per_endpoint=1)
        run_request(tracer, clock, request_id="req-slow", duration_ms=10.0)
        fast = run_request(tracer, clock, request_id="req-fast",
                           duration_ms=1.0)
        assert tracer.export("req-fast") is None
        with traced("router.shard_probe", context=fast):
            clock.tick_ms(20.0)
        stats = tracer.stats()
        assert stats["late_spans"] == 1
        assert stats["traces_sampled"] == 1
        assert tracer.export("req-fast") is None
        assert tracer._slowest == {"search": [10.0]}
        # The threshold is still 10 ms: a 15 ms request is kept.
        run_request(tracer, clock, request_id="req-15", duration_ms=15.0)
        assert tracer.export("req-15")["sampled"] == "slow"


class DyadicClock(FakeClock):
    """Ticks of 2**-10 s: every time and difference is exact in binary."""

    def tick(self, n: int = 1) -> None:
        self.now_s += n * 2.0 ** -10


def _nested_request(tracer, clock, i):
    """edge.request > gateway > (probe, on even i) with uneven gaps."""
    ctx = RequestContext(request_id=f"req-{i}", tracer=tracer,
                         tags={"endpoint": "search"})
    with tracer.span("edge.request", context=ctx):
        clock.tick(1)
        with traced("gateway", context=ctx):
            clock.tick(i % 3 + 1)
            if i % 2 == 0:
                with traced("probe", context=ctx):
                    clock.tick(2)
            clock.tick(1)
        clock.tick(i % 2)


class TestSelfTimeHistograms:
    def test_counts_equal_the_requests_that_opened_each_span(self):
        clock = DyadicClock()
        tracer = Tracer(clock=clock, slowest_per_endpoint=1)
        for i in range(9):
            _nested_request(tracer, clock, i)
        counts = {
            name: hist.count
            for name, hist in tracer.self_time_histograms().items()
        }
        assert counts == {"edge.request": 9, "gateway": 9, "probe": 5}
        # Kept or dropped, every closed trace was folded.
        stats = tracer.stats()
        assert stats["traces_sampled"] + stats["traces_dropped"] == 9

    def test_self_times_sum_exactly_to_root_durations(self):
        clock = DyadicClock()
        tracer = Tracer(clock=clock, slowest_per_endpoint=64)
        for i in range(9):
            _nested_request(tracer, clock, i)
        # Each root lasts 2 + (i % 3 + 1) + (i % 2) ticks, 2 more with
        # a probe: the sum of its spans' self times, exactly.
        roots_ms = sum(
            (3 + i % 3 + i % 2 + (2 if i % 2 == 0 else 0)) * 1000.0 / 1024
            for i in range(9)
        )
        assert len(tracer.trace_ids()) == 9
        selfs_ms = sum(
            hist.sum_ms()
            for hist in tracer.self_time_histograms().values()
        )
        assert selfs_ms == roots_ms
        gateway = tracer.self_time_histograms()["gateway"]
        assert gateway.sum_ms() == sum(
            (i % 3 + 2) * 1000.0 / 1024 for i in range(9)
        )

    def test_prom_exposition_carries_the_family(self, clock):
        tracer = Tracer(clock=clock)
        for i in range(3):
            run_request(tracer, clock, request_id=f"req-{i}")
        text = render_openmetrics(
            {"tracer": tracer.stats()},
            labeled_histograms={
                "span_self_ms": ("span", tracer.self_time_histograms())
            },
        )
        doc = parse_openmetrics(text)  # raises on any violation
        assert doc.types["shoal_span_self_ms"] == "histogram"
        for name in ("edge.request", "gateway"):
            assert doc.value("shoal_span_self_ms_count", span=name) == 3


class CountingLock:
    """A lock that counts its acquisitions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.acquired = 0

    def __enter__(self):
        self._lock.acquire()
        self.acquired += 1
        return self

    def __exit__(self, *exc):
        self._lock.release()
        return None


def test_a_dropped_request_takes_the_tracer_lock_once(clock):
    tracer = Tracer(clock=clock, slowest_per_endpoint=1)
    run_request(tracer, clock, request_id="req-slow", duration_ms=50.0)
    lock = tracer._lock = CountingLock()
    ctx = RequestContext(request_id="req-fast", tracer=tracer,
                         tags={"endpoint": "search"})
    with traced("edge.request", context=ctx):
        for name in ("edge.dispatch", "gateway", "mw.metrics", "mw.cache"):
            with traced(name, context=ctx):
                clock.tick_ms(0.1)
    assert lock.acquired == 1  # the fold, once, at the root's close
    assert tracer.export("req-fast") is None
