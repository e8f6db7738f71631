"""Per-request span records, folded once when the root closes.

A span is a small record (:class:`Span`) appended to the list its
:class:`~repro.api.context.RequestContext` owns: name, parent index,
start, end, status, detail, and the caller's tags held by reference.
The record is its own context manager. Opening one takes no lock,
builds no string and sets no context variable: its parent is the index
of the innermost span open on the same context
(``RequestContext.span_cursor``). The first span opened on a context
is its root; once the root has closed, the context refuses new spans
and counts them as ``late_spans``. A span still open when its root
closes (work the root stopped waiting for) is marked ``cancelled`` at
the root's end.

Only the root's close takes the tracer's lock, once, and folds the
tree:

* each span's self time (its duration minus its children's) goes into
  a per-name histogram, exposed as ``shoal_span_self_ms{span="…"}`` on
  ``GET /v1/metrics?format=prom``;
* the **tail-sampling** decision is made. A trace is kept when any span
  ended in an error (which includes deadline expiries), or when the
  root is among the slowest :attr:`Tracer.slowest_per_endpoint`
  requests seen so far for its endpoint (a ratcheting threshold — the
  process-wide slowest request is always kept);
* for a kept trace only, the span dicts are built (ids
  ``{request_id}:{n}``, stringified tags) into a bounded ring,
  queryable by request id via ``GET /v1/trace?request_id=`` and the
  ``cli.py trace`` subcommand. Everything else is counted and dropped.

Background work (WAL appends, coalesced flushes, updater folds and
their ``fit.*`` stages, shipper publishes, follower loads and swaps)
has no request context: its first :func:`traced` call mints a ``bg-N``
context on the process default tracer and makes it ambient until that
root closes, so nested spans join its tree the same way.
The fold runs in a child process: its finished trees (``updater.batch_fold``
and its ``fit.*`` stages) are sent to the server, whose tracer folds
each one with :meth:`Tracer.adopt` as if it had closed there.

With no tracer in scope, :func:`traced` returns a shared no-op after a
context-variable read and two attribute checks.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import OrderedDict, defaultdict
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.histogram import Histogram

__all__ = [
    "Span",
    "Tracer",
    "default_tracer",
    "set_default_tracer",
    "traced",
]

_DEFAULT: Optional["Tracer"] = None

#: Pending self times that make a root close fold them into their
#: histograms (bucketing is otherwise left to the next scrape).
FOLD_SELF_TIMES_AT = 32768


def set_default_tracer(tracer: Optional["Tracer"]) -> None:
    """Install the process-wide fallback tracer.

    Background components (updater, shipper, follower) have no request
    context; their :func:`traced` calls record against this tracer.
    """
    global _DEFAULT
    _DEFAULT = tracer


def default_tracer() -> Optional["Tracer"]:
    return _DEFAULT


class Span:
    """One timed stage of a request (or background unit of work).

    Times are raw tracer-clock seconds; ``parent`` is an index into the
    context's span list (-1 for the root).
    """

    __slots__ = (
        "ctx", "index", "name", "parent", "tags",
        "start", "end", "status", "detail",
    )

    def __init__(self, ctx, index, name, parent, tags, start) -> None:
        self.ctx = ctx
        self.index = index
        self.name = name
        self.parent = parent
        self.tags = tags
        self.start = start
        self.end: Optional[float] = None
        self.status = "ok"
        self.detail: Optional[str] = None

    def __enter__(self) -> "Span":
        self.ctx.span_cursor = self.index
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.end is not None:  # already closed by its root's fold
            return None
        ctx = self.ctx
        self.end = ctx.tracer._clock()
        if exc is not None:
            code = getattr(exc, "code", None)
            if code == "cancelled":
                self.status = "cancelled"
                self.detail = str(code)
            else:
                self.status = "error"
                self.detail = (
                    str(code) if code is not None else type(exc).__name__
                )
        ctx.span_cursor = self.parent
        if self.parent < 0:
            ctx.tracer._close(ctx)
        return None


class _BackgroundRoot(Span):
    """Root of a ``bg-N`` trace: its context is ambient while it is open."""

    __slots__ = ("_use",)

    def __enter__(self) -> "Span":
        self._use = self.ctx.use()
        self._use.__enter__()
        return Span.__enter__(self)

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            Span.__exit__(self, exc_type, exc, tb)
        finally:
            self._use.__exit__(None, None, None)


class _NullHandle:
    """Reusable no-op stand-in when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL = _NullHandle()

_current_context = None


def traced(
    name: str,
    *,
    tags: Optional[Dict[str, Any]] = None,
    context: Any = None,
):
    """Open a span on whatever tracer is in scope, or do nothing.

    Resolution order: the explicit/ambient request context's
    ``tracer`` attribute, then the process default tracer. Layers deep
    in the stack (router probes, WAL appends, updater folds) call this
    unconditionally — when no tracer is in scope it allocates nothing.
    """
    ctx = context
    if ctx is None:
        global _current_context
        if _current_context is None:
            # Imported lazily (context.py is above this leaf package)
            # and cached: the tracing-off path must not pay import
            # machinery on every call.
            from repro.api.context import current_context

            _current_context = current_context
        ctx = _current_context()
        if ctx is None:
            if _DEFAULT is None:
                return _NULL
            return _DEFAULT.span(name, tags=tags)
    tracer = ctx.tracer
    if tracer is None:
        tracer = _DEFAULT
        if tracer is None:
            return _NULL
    return tracer.span(name, context=ctx, tags=tags)


class Tracer:
    """Folds finished span trees and tail-samples them.

    Thread-safe; one instance per serving process (primary or
    follower), shared by the edge, the gateway, and the background
    write path. Spans themselves live on their request's context.
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
        self._ring: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        # endpoint -> min-heap of the durations of the N slowest kept
        # traces; heap[0] is the ratcheting "slow enough" threshold.
        self._slowest: Dict[str, List[float]] = {}
        # Span name -> self times (s) not yet in its histogram; a read
        # of the histograms, or FOLD_SELF_TIMES_AT of them, folds them.
        self._self_pending: Dict[str, List[float]] = defaultdict(list)
        self._self_ms: Dict[str, Histogram] = {}
        self._unfolded = 0
        # next() on a count is atomic, so ids and root opens need no
        # lock; stats() draws one number per call and subtracts those.
        self._bg_ids = itertools.count(1)
        self._roots_opened = itertools.count()
        self._stats_calls = 0
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
        tags: Optional[Dict[str, Any]] = None,
    ) -> "Span | _NullHandle":
        """A span record on ``context`` (a fresh ``bg-N`` context when
        None); the first span opened on a context is its root."""
        ctx = context
        if ctx is not None:
            spans = ctx.spans
            if spans and len(spans) < self.max_spans_per_trace:
                span = Span(
                    ctx, len(spans), name, ctx.span_cursor, tags, self._clock()
                )
                spans.append(span)
                return span
        root_cls = Span
        if ctx is None:
            from repro.api.context import RequestContext

            ctx = RequestContext(request_id=f"bg-{next(self._bg_ids)}")
            root_cls = _BackgroundRoot
        spans = ctx.spans
        if spans is None:
            next(self._roots_opened)
            ctx.tracer = self
            # The root snapshots the request's tag map as it is now.
            root_tags = dict(ctx.tags)
            if tags:
                root_tags.update(tags)
            root = root_cls(ctx, 0, name, -1, root_tags, self._clock())
            ctx.spans = [root]
            return root
        with self._lock:
            self._spans_started += 1
            if spans:
                self._spans_dropped += 1
            else:
                # Abandoned work straggling past its root: record
                # nothing, but keep the caller's code path intact.
                self._late_spans += 1
        return _NULL

    def adopt(self, rows) -> None:
        """Fold a finished span tree recorded by another process.

        ``rows`` are ``(name, parent, start, end, status, detail, tags)``
        in the order the spans opened, times on the same monotonic
        clock; the tree joins this tracer as a ``bg-N`` trace, exactly
        as if its root had closed here.
        """
        from repro.api.context import RequestContext

        ctx = RequestContext(request_id=f"bg-{next(self._bg_ids)}")
        spans = []
        for index, (name, parent, start, end, status, detail, tags) in (
            enumerate(rows)
        ):
            span = Span(ctx, index, name, int(parent), tags, float(start))
            span.end = float(end)
            span.status = status
            span.detail = detail
            spans.append(span)
        if not spans:
            return
        next(self._roots_opened)
        ctx.tracer = self
        ctx.spans = spans
        self._close(ctx)

    # -- the fold: self times, sampling, kept trees ---------------------------

    def _close(self, ctx) -> None:
        spans: List[Span] = ctx.spans
        # Closed: later spans are late, and the records stop referring
        # to a context that refers to them.
        ctx.spans = ()
        root = spans[0]
        # Self time: a span's duration less its children's. A parent
        # precedes its children in the list, so one pass settles it.
        selfs = []
        failed = False
        for span in spans:
            if span.end is None:
                # Still open: work the root stopped waiting for.
                span.end = root.end
                span.status = "cancelled"
                span.detail = ctx.token.reason or "unfinished"
            if span.status != "ok":
                failed = True
            duration = span.end - span.start
            selfs.append(duration)
            if span.parent >= 0:
                selfs[span.parent] -= duration
        endpoint = str(root.tags.get("endpoint", root.name))
        duration_ms = root.end * 1000.0 - root.start * 1000.0
        with self._lock:
            self._spans_started += len(spans)
            pending = self._self_pending
            for span, self_s in zip(spans, selfs):
                pending[span.name].append(self_s)
            self._unfolded += len(spans)
            if self._unfolded >= FOLD_SELF_TIMES_AT:
                self._fold_self_times_locked()
            if failed and any(span.status == "error" for span in spans):
                reason = "deadline" if any(
                    span.detail == "deadline_exceeded" for span in spans
                ) else "error"
            else:
                reason = self._slow_reason_locked(endpoint, duration_ms)
            if reason is None:
                self._traces_dropped += 1
                return
            rid = str(ctx.request_id)
            self._ring[rid] = {
                "request_id": rid,
                "endpoint": endpoint,
                "duration_ms": round(duration_ms, 3),
                "sampled": reason,
                "ts": time.time(),
                "spans": _span_dicts(rid, spans),
            }
            self._traces_sampled += 1
            while len(self._ring) > self.capacity:
                self._ring.popitem(last=False)
                self._traces_evicted += 1

    def _fold_self_times_locked(self) -> None:
        for name, values in self._self_pending.items():
            hist = self._self_ms.get(name)
            if hist is None:
                hist = self._self_ms[name] = Histogram()
            hist.record_all_ms([v * 1000.0 for v in values])
            values.clear()
        self._unfolded = 0

    def _slow_reason_locked(
        self, endpoint: str, duration_ms: float
    ) -> Optional[str]:
        heap = self._slowest.get(endpoint)
        if heap is None:
            heap = self._slowest[endpoint] = []
        if len(heap) < self.slowest_per_endpoint:
            heapq.heappush(heap, duration_ms)
            return "slow"
        if duration_ms > heap[0]:
            heapq.heappushpop(heap, duration_ms)
            return "slow"
        return None

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

    def self_time_histograms(self) -> Dict[str, Histogram]:
        """Span name -> histogram of that span's self time (ms), over
        every closed trace, kept or dropped."""
        with self._lock:
            self._fold_self_times_locked()
            return dict(self._self_ms)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            opened = next(self._roots_opened) - self._stats_calls
            self._stats_calls += 1
            closed = self._traces_sampled + self._traces_dropped
            return {
                "spans_started": self._spans_started,
                "spans_dropped": self._spans_dropped,
                "late_spans": self._late_spans,
                "traces_sampled": self._traces_sampled,
                "traces_dropped": self._traces_dropped,
                "traces_evicted": self._traces_evicted,
                "buffered": len(self._ring),
                "open": opened - closed,
                "capacity": self.capacity,
                "slowest_per_endpoint": self.slowest_per_endpoint,
            }


def _span_dicts(request_id: str, spans: List[Span]) -> List[Dict[str, Any]]:
    """A kept tree's exported spans, ordered by (start, span id)."""
    ids = [f"{request_id}:{n}" for n in range(1, len(spans) + 1)]
    epoch_ms = spans[0].start * 1000.0
    rows = []
    for span, span_id in zip(spans, ids):
        start_ms = span.start * 1000.0
        rows.append((start_ms, span_id, {
            "span_id": span_id,
            "parent_id": ids[span.parent] if span.parent >= 0 else None,
            "name": span.name,
            "tags": {str(k): str(v) for k, v in (span.tags or {}).items()},
            "start_ms": round(start_ms - epoch_ms, 3),
            "duration_ms": round(span.end * 1000.0 - start_ms, 3),
            "status": span.status,
            "detail": span.detail,
        }))
    rows.sort(key=lambda row: row[:2])
    return [row[2] for row in rows]
