"""Per-request span trees with deterministic tail-based sampling.

Every request that enters an edge gets a span tree: the edge root
span, its dispatch span, the gateway, the middleware
stack, the backend, the router and each per-shard probe; write-path
work (WAL appends, coalesced flushes, updater batch folds, shipper
publishes, follower loads and swaps) produces its own background
traces. Spans hang off the existing
:class:`~repro.api.context.RequestContext` — they inherit its request
id and tag map, and a span still open when its root closes (work the
root stopped waiting for) is deterministically marked ``cancelled``.

Sampling is **tail-based**: every span is recorded while the request
runs, and the keep/drop decision is made only when the root span
finishes, so the policy can see the whole tree. A trace is kept when

* any span ended in an error (which includes deadline expiries), or
* the root is among the slowest :attr:`Tracer.slowest_per_endpoint`
  requests seen so far for its endpoint (a ratcheting threshold — the
  process-wide slowest request is always kept).

Kept traces land in a bounded ring buffer, queryable by request id via
``GET /v1/trace?request_id=`` and the ``cli.py trace`` subcommand.
Everything else is counted and dropped — the drop counters are part of
the metrics tree so the exposition layer can alert on them.

Instrumentation points use :func:`traced`, which is a strict no-op
(one attribute check) when neither the ambient request context nor the
process carries a tracer — the read path stays un-instrumented-cost
when tracing is off.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "current_span",
    "default_tracer",
    "set_default_tracer",
    "traced",
]

import contextvars

#: Ambient parent span for the current thread/task. asyncio tasks and
#: plain threads each see their own value, which is exactly the
#: parenting scope we want; a thread hop passes the parent explicitly.
_CURRENT_SPAN: "contextvars.ContextVar[Optional[Span]]" = (
    contextvars.ContextVar("repro_obs_span", default=None)
)

_DEFAULT: Optional["Tracer"] = None


def set_default_tracer(tracer: Optional["Tracer"]) -> None:
    """Install the process-wide fallback tracer.

    Background components (updater, shipper, follower) have no request
    context; their :func:`traced` calls record against this tracer.
    """
    global _DEFAULT
    _DEFAULT = tracer


def default_tracer() -> Optional["Tracer"]:
    return _DEFAULT


#: ``current_span()`` is the span open on this thread/task, or None
#: outside any span. The bound method itself, not a wrapper: middleware
#: stages call it once per request even with tracing off.
current_span = _CURRENT_SPAN.get


class Span:
    """One timed stage of a request (or background unit of work)."""

    __slots__ = (
        "span_id",
        "parent_id",
        "trace_id",
        "name",
        "tags",
        "start_ms",
        "end_ms",
        "status",
        "detail",
        "_ctx",
    )

    def __init__(
        self,
        span_id: str,
        parent_id: Optional[str],
        trace_id: str,
        name: str,
        tags: Dict[str, str],
        start_ms: float,
        ctx: Any = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.name = name
        self.tags = tags
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self.status = "ok"
        self.detail: Optional[str] = None
        self._ctx = ctx

    @property
    def duration_ms(self) -> float:
        end = self.end_ms if self.end_ms is not None else self.start_ms
        return end - self.start_ms

    def to_dict(self, epoch_ms: float) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "tags": dict(self.tags),
            "start_ms": round(self.start_ms - epoch_ms, 3),
            "duration_ms": round(self.duration_ms, 3),
            "status": self.status,
            "detail": self.detail,
        }


class _SpanHandle:
    """Context manager returned by :meth:`Tracer.span` / :func:`traced`."""

    __slots__ = ("_tracer", "span", "_token")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span
        self._token = None

    def tag(self, key: str, value: str) -> None:
        self.span.tags[key] = value

    def __enter__(self) -> "_SpanHandle":
        self._token = _CURRENT_SPAN.set(self.span)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        self._tracer._end_span(self.span, exc)
        return None


class _NullHandle:
    """Reusable no-op stand-in when tracing is off."""

    __slots__ = ()
    span = None

    def tag(self, key: str, value: str) -> None:
        pass

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL = _NullHandle()

_current_context = None


def traced(
    name: str,
    *,
    tags: Optional[Dict[str, str]] = None,
    context: Any = None,
    parent: Optional[Span] = None,
):
    """Open a span on whatever tracer is in scope, or do nothing.

    Resolution order: the explicit/ambient request context's
    ``tracer`` attribute, then the process default tracer. Layers deep
    in the stack (router probes, WAL appends, updater folds) call this
    unconditionally — when no tracer is in scope it costs two
    attribute lookups and allocates nothing.
    """
    ctx = context
    if ctx is None:
        global _current_context
        if _current_context is None:
            # Imported lazily (context.py imports this module) and
            # cached: the tracing-off fast path must not pay import
            # machinery on every call.
            from repro.api.context import current_context

            _current_context = current_context
        ctx = _current_context()
    tracer = getattr(ctx, "tracer", None) if ctx is not None else None
    if tracer is None:
        tracer = _DEFAULT
    if tracer is None:
        return _NULL
    return tracer.span(name, context=ctx, tags=tags, parent=parent)


class _TraceBucket:
    __slots__ = ("trace_id", "spans", "root", "next_id", "created_ms")

    def __init__(self, trace_id: str, created_ms: float) -> None:
        self.trace_id = trace_id
        self.spans: List[Span] = []
        self.root: Optional[Span] = None
        self.next_id = 0
        self.created_ms = created_ms


class Tracer:
    """Collects spans into per-request trees and tail-samples them.

    Thread-safe; one instance per serving process (primary or
    follower), shared by the edge, the gateway, and the background
    write path.
    """

    def __init__(
        self,
        *,
        capacity: int = 256,
        slowest_per_endpoint: int = 8,
        max_spans_per_trace: int = 512,
        clock=time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if slowest_per_endpoint < 1:
            raise ValueError(
                "slowest_per_endpoint must be >= 1, "
                f"got {slowest_per_endpoint}"
            )
        self.capacity = capacity
        self.slowest_per_endpoint = slowest_per_endpoint
        self.max_spans_per_trace = max_spans_per_trace
        self._clock = clock
        self._lock = threading.Lock()
        self._open: "OrderedDict[str, _TraceBucket]" = OrderedDict()
        self._ring: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        # endpoint -> min-heap of the durations of the N slowest kept
        # traces; heap[0] is the ratcheting "slow enough" threshold.
        self._slowest: Dict[str, List[float]] = {}
        self._bg_seq = 0
        self._spans_started = 0
        self._spans_dropped = 0
        self._traces_sampled = 0
        self._traces_dropped = 0
        self._traces_evicted = 0
        self._late_spans = 0

    # -- span creation -------------------------------------------------------

    def span(
        self,
        name: str,
        *,
        context: Any = None,
        tags: Optional[Dict[str, str]] = None,
        parent: Optional[Span] = None,
    ) -> "_SpanHandle | _NullHandle":
        if parent is None:
            parent = _CURRENT_SPAN.get()
        now = self._clock() * 1000.0
        span_tags: Dict[str, str] = {}
        with self._lock:
            self._spans_started += 1
            if parent is not None:
                trace_id = parent.trace_id
            elif context is not None:
                trace_id = str(context.request_id)
            else:
                self._bg_seq += 1
                trace_id = f"bg-{self._bg_seq}"
            bucket = self._open.get(trace_id)
            if bucket is None:
                if trace_id in self._ring:
                    # The trace already finalized (abandoned work
                    # straggling past its root) — record nothing,
                    # but keep the caller's code path intact.
                    self._late_spans += 1
                    return _NULL
                bucket = _TraceBucket(trace_id, now)
                self._open[trace_id] = bucket
                self._evict_stale_locked()
            if len(bucket.spans) >= self.max_spans_per_trace:
                self._spans_dropped += 1
                return _NULL
            bucket.next_id += 1
            span_id = f"{trace_id}:{bucket.next_id}"
            if parent is None and context is not None:
                # Root spans inherit the request's whole tag map.
                span_tags.update(
                    {str(k): str(v) for k, v in context.tags.items()}
                )
            if tags:
                span_tags.update({str(k): str(v) for k, v in tags.items()})
            span = Span(
                span_id=span_id,
                parent_id=parent.span_id if parent is not None else None,
                trace_id=trace_id,
                name=name,
                tags=span_tags,
                start_ms=now,
                ctx=context,
            )
            bucket.spans.append(span)
            if bucket.root is None and parent is None:
                bucket.root = span
        return _SpanHandle(self, span)

    def _end_span(self, span: Span, exc: Optional[BaseException]) -> None:
        if span.end_ms is not None:  # already closed by a finalizer
            return
        span.end_ms = self._clock() * 1000.0
        if exc is not None:
            code = getattr(exc, "code", None)
            if code == "cancelled":
                span.status = "cancelled"
                span.detail = str(code)
            else:
                span.status = "error"
                span.detail = (
                    str(code) if code is not None else type(exc).__name__
                )
        with self._lock:
            bucket = self._open.get(span.trace_id)
            if bucket is not None and bucket.root is span:
                del self._open[span.trace_id]
                self._finalize_locked(bucket)

    # -- finalization + sampling ----------------------------------------------

    def _finalize_locked(self, bucket: _TraceBucket) -> None:
        root = bucket.root
        assert root is not None and root.end_ms is not None
        for span in bucket.spans:
            if span.end_ms is None:
                # Still open when the root closed — only work the root
                # stopped waiting for can be here.
                span.end_ms = root.end_ms
                span.status = "cancelled"
                token = getattr(span._ctx, "token", None)
                span.detail = getattr(token, "reason", None) or "unfinished"
        endpoint = root.tags.get("endpoint", root.name)
        reason = self._sample_reason_locked(bucket, endpoint)
        if reason is None:
            self._traces_dropped += 1
            return
        spans = sorted(bucket.spans, key=lambda s: (s.start_ms, s.span_id))
        trace = {
            "request_id": bucket.trace_id,
            "endpoint": endpoint,
            "duration_ms": round(root.duration_ms, 3),
            "sampled": reason,
            "ts": time.time(),
            "spans": [s.to_dict(root.start_ms) for s in spans],
        }
        self._ring[bucket.trace_id] = trace
        self._traces_sampled += 1
        while len(self._ring) > self.capacity:
            self._ring.popitem(last=False)
            self._traces_evicted += 1

    def _sample_reason_locked(
        self, bucket: _TraceBucket, endpoint: str
    ) -> Optional[str]:
        if any(s.status == "error" for s in bucket.spans):
            root = bucket.root
            assert root is not None
            if root.detail == "deadline_exceeded" or any(
                s.detail == "deadline_exceeded" for s in bucket.spans
            ):
                return "deadline"
            return "error"
        heap = self._slowest.setdefault(endpoint, [])
        duration = bucket.root.duration_ms  # type: ignore[union-attr]
        if len(heap) < self.slowest_per_endpoint:
            heapq.heappush(heap, duration)
            return "slow"
        if duration > heap[0]:
            heapq.heappushpop(heap, duration)
            return "slow"
        return None

    def _evict_stale_locked(self) -> None:
        # A trace whose root never finishes (edge thread died) must not
        # leak its bucket forever; cap open buckets at 4x the ring.
        limit = self.capacity * 4
        while len(self._open) > limit:
            self._open.popitem(last=False)
            self._traces_dropped += 1

    # -- queries ---------------------------------------------------------------

    def export(self, request_id: str) -> Optional[Dict[str, Any]]:
        """The sampled trace for ``request_id``."""
        with self._lock:
            trace = self._ring.get(str(request_id))
            return dict(trace) if trace is not None else None

    def latest(self) -> Optional[Dict[str, Any]]:
        """The most recently sampled trace, if any."""
        with self._lock:
            if not self._ring:
                return None
            return dict(next(reversed(self._ring.values())))

    def trace_ids(self) -> List[Tuple[str, str, float]]:
        """(request_id, endpoint, duration_ms) for every buffered trace,
        most recent last."""
        with self._lock:
            return [
                (t["request_id"], t["endpoint"], t["duration_ms"])
                for t in self._ring.values()
            ]

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "spans_started": self._spans_started,
                "spans_dropped": self._spans_dropped,
                "late_spans": self._late_spans,
                "traces_sampled": self._traces_sampled,
                "traces_dropped": self._traces_dropped,
                "traces_evicted": self._traces_evicted,
                "buffered": len(self._ring),
                "open": len(self._open),
                "capacity": self.capacity,
                "slowest_per_endpoint": self.slowest_per_endpoint,
            }
