"""RequestContext / CancelToken: the per-request deadline + cancellation
object every edge mints and every blocking layer polls.

Everything here runs on an injected fake clock — no sleeps, no timing
flakes. The properties that matter:

* deadlines are absolute and tighten-only;
* cancellation is monotonic and first-reason-wins;
* ``raise_if_done`` maps to the two stable contract codes;
* ``use()`` installs/restores the ambient context correctly even when
  nested.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import ApiError
from repro.api.context import CancelToken, RequestContext, current_context


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCancelToken:
    def test_starts_live(self):
        token = CancelToken()
        assert not token.cancelled
        assert token.reason is None

    def test_cancel_is_monotonic_and_first_reason_wins(self):
        token = CancelToken()
        token.cancel("first")
        token.cancel("second")
        assert token.cancelled
        assert token.reason == "first"


class TestDeadline:
    def test_unarmed_context_is_unbounded(self):
        ctx = RequestContext(clock=FakeClock())
        assert ctx.deadline is None
        assert ctx.remaining_ms() is None
        assert not ctx.expired
        assert not ctx.done

    def test_arm_sets_an_absolute_deadline(self):
        clock = FakeClock(now=50.0)
        ctx = RequestContext(clock=clock)
        ctx.arm(250.0)
        assert ctx.deadline == pytest.approx(50.25)
        assert ctx.remaining_ms() == pytest.approx(250.0)

    def test_arm_only_tightens(self):
        clock = FakeClock()
        ctx = RequestContext(clock=clock)
        ctx.arm(100.0)
        ctx.arm(500.0)  # looser: ignored
        assert ctx.remaining_ms() == pytest.approx(100.0)
        ctx.arm(20.0)  # tighter: wins
        assert ctx.remaining_ms() == pytest.approx(20.0)

    def test_arm_rejects_non_positive_budgets(self):
        ctx = RequestContext(clock=FakeClock())
        with pytest.raises(ValueError):
            ctx.arm(0.0)
        with pytest.raises(ValueError):
            ctx.arm(-5.0)

    def test_expiry_follows_the_clock(self):
        clock = FakeClock()
        ctx = RequestContext.for_request(timeout_ms=100.0, clock=clock)
        assert not ctx.expired
        clock.advance(0.099)
        assert not ctx.expired
        clock.advance(0.002)
        assert ctx.expired
        assert ctx.done
        assert ctx.remaining_ms() == pytest.approx(-1.0)

    def test_for_request_without_timeout_is_unbounded(self):
        ctx = RequestContext.for_request(clock=FakeClock())
        assert ctx.deadline is None


class TestRaiseIfDone:
    def test_live_context_is_silent(self):
        RequestContext(clock=FakeClock()).raise_if_done()

    def test_expired_raises_deadline_exceeded(self):
        clock = FakeClock()
        ctx = RequestContext.for_request(timeout_ms=10.0, clock=clock)
        clock.advance(0.02)
        with pytest.raises(ApiError) as excinfo:
            ctx.raise_if_done()
        assert excinfo.value.code == "deadline_exceeded"
        assert ctx.request_id in str(excinfo.value)

    def test_cancelled_raises_cancelled_with_reason(self):
        ctx = RequestContext(clock=FakeClock())
        ctx.cancel("client gone")
        with pytest.raises(ApiError) as excinfo:
            ctx.raise_if_done()
        assert excinfo.value.code == "cancelled"
        assert "client gone" in str(excinfo.value)

    def test_deadline_wins_over_cancellation(self):
        """Both flags up → the 504 code: the deadline is what the
        client observes; cancellation is its internal consequence."""
        clock = FakeClock()
        ctx = RequestContext.for_request(timeout_ms=10.0, clock=clock)
        clock.advance(1.0)
        ctx.cancel("deadline expired")
        with pytest.raises(ApiError) as excinfo:
            ctx.raise_if_done()
        assert excinfo.value.code == "deadline_exceeded"

    def test_cancelled_maps_to_499(self):
        from repro.api import ERROR_CODES

        assert ERROR_CODES["cancelled"] == 499


class TestIdentity:
    def test_request_ids_are_unique(self):
        a, b = RequestContext(), RequestContext()
        assert a.request_id != b.request_id


class TestAmbientPropagation:
    def test_no_context_outside_a_request(self):
        assert current_context() is None

    def test_use_installs_and_restores(self):
        ctx = RequestContext(clock=FakeClock())
        with ctx.use() as installed:
            assert installed is ctx
            assert current_context() is ctx
        assert current_context() is None

    def test_nesting_restores_the_outer_context(self):
        outer, inner = RequestContext(), RequestContext()
        with outer.use():
            with inner.use():
                assert current_context() is inner
            assert current_context() is outer
        assert current_context() is None

    def test_use_restores_on_exception(self):
        ctx = RequestContext()
        with pytest.raises(RuntimeError):
            with ctx.use():
                raise RuntimeError("boom")
        assert current_context() is None

    def test_context_does_not_leak_across_threads(self):
        """contextvars are per-thread: an executor worker must enter
        use() itself (exactly what the async edge does)."""
        ctx = RequestContext()
        seen = []
        with ctx.use():
            t = threading.Thread(target=lambda: seen.append(current_context()))
            t.start()
            t.join()
        assert seen == [None]
