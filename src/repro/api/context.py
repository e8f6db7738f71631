"""Explicit per-request context: deadline, cancellation, identity.

Every request that enters an edge gets one :class:`RequestContext`
carrying the four things the whole serving path needs to agree on:

* a **deadline** — absolute, on the context's own monotonic clock, so
  "how much time is left" has one answer no matter which layer asks;
* a **cancellation token** — cooperative: the edge flips it, the
  blocking layers poll it at their natural check points (between shard
  probes, between batch items) and abandon work instead of finishing
  answers nobody will read;
* a **request id** — one string to correlate edge, middleware, and
  shard logs;
* **trace tags** — free-form key/value breadcrumbs (endpoint, edge).

The context is *threaded*, not passed parameter-by-parameter: the edge
(or :meth:`~repro.api.middleware.Gateway.handle`) installs it in a
:mod:`contextvars` variable via :meth:`RequestContext.use`, and every
layer below reads it back with :func:`current_context`. The async edge
runs each read on its event loop and enters ``use()`` around the
dispatch, so the context is ambient in that task alone.
"""

from __future__ import annotations

import contextvars
import itertools
import time
from typing import Callable, Dict, Mapping, Optional

from repro.api.contract import ApiError

__all__ = ["CancelToken", "RequestContext", "current_context"]


class CancelToken:
    """A cooperative cancellation flag.

    Monotonic: once cancelled, a token stays cancelled and keeps its
    first reason. Nothing waits on it; the layers that poll it run on
    the thread that owns the request.
    """

    __slots__ = ("_cancelled", "_reason")

    def __init__(self) -> None:
        self._cancelled = False
        self._reason: Optional[str] = None

    def cancel(self, reason: str = "cancelled") -> None:
        """Flip the flag (idempotent; the first reason wins)."""
        if not self._cancelled:
            self._reason = reason
            self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def reason(self) -> Optional[str]:
        """Why the token was cancelled (None while it is live)."""
        return self._reason


#: Process-wide request id source; ids only need to be unique, not dense.
_REQUEST_IDS = itertools.count(1)

_CURRENT: contextvars.ContextVar[Optional["RequestContext"]] = (
    contextvars.ContextVar("shoal_request_context", default=None)
)


#: ``current_context()`` is the ambient :class:`RequestContext`, or None
#: outside a request. The bound method itself, not a wrapper: every
#: layer of the read path calls it per request.
current_context = _CURRENT.get


class RequestContext:
    """Deadline + cancellation + identity for one request in flight.

    ``deadline`` is absolute on ``clock`` (monotonic seconds); arm one
    with :meth:`arm`, which only ever *tightens* — a layer can shorten
    the budget it inherited, never extend it. ``clock`` is injectable
    for deterministic tests.
    """

    def __init__(
        self,
        *,
        request_id: Optional[str] = None,
        tags: Optional[Mapping[str, str]] = None,
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional[object] = None,
    ):
        self.request_id = (
            request_id if request_id is not None
            else f"req-{next(_REQUEST_IDS)}"
        )
        self.token = CancelToken()
        self.tags: Dict[str, str] = dict(tags or {})
        #: Optional :class:`repro.obs.tracer.Tracer` — spans opened via
        #: :func:`repro.obs.tracer.traced` inherit this request's id
        #: and tag map. Duck-typed so the context stays a leaf module.
        self.tracer = tracer
        #: This request's span records (None until its first span
        #: opens) and the index of the innermost open one (-1: none).
        #: Owned by :mod:`repro.obs.tracer`.
        self.spans: Optional[list] = None
        self.span_cursor = -1
        self._clock = clock
        self._deadline: Optional[float] = None

    @classmethod
    def for_request(
        cls,
        *,
        timeout_ms: Optional[float] = None,
        tags: Optional[Mapping[str, str]] = None,
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional[object] = None,
    ) -> "RequestContext":
        """The edge entry point: a fresh context, optionally armed."""
        ctx = cls(tags=tags, clock=clock, tracer=tracer)
        if timeout_ms is not None:
            ctx.arm(timeout_ms)
        return ctx

    # -- deadline ------------------------------------------------------------

    @property
    def deadline(self) -> Optional[float]:
        """Absolute deadline in ``clock`` seconds (None = unbounded)."""
        return self._deadline

    def arm(self, timeout_ms: float) -> None:
        """Set the deadline to ``timeout_ms`` from now, only tightening."""
        if timeout_ms <= 0:
            raise ValueError(f"timeout_ms must be > 0, got {timeout_ms}")
        candidate = self._clock() + timeout_ms / 1000.0
        if self._deadline is None or candidate < self._deadline:
            self._deadline = candidate

    def remaining_ms(self) -> Optional[float]:
        """Milliseconds left before the deadline (None = unbounded).

        Can go negative once expired — callers use the sign, loggers
        the magnitude.
        """
        if self._deadline is None:
            return None
        return (self._deadline - self._clock()) * 1000.0

    @property
    def expired(self) -> bool:
        return self._deadline is not None and self._clock() >= self._deadline

    # -- cancellation --------------------------------------------------------

    @property
    def cancelled(self) -> bool:
        return self.token.cancelled

    def cancel(self, reason: str = "cancelled") -> None:
        """Cancel this request; the blocking layers see it at their
        next check point."""
        self.token.cancel(reason)

    @property
    def done(self) -> bool:
        """True when further work on this request is pointless."""
        return self.expired or self.cancelled

    def raise_if_done(self) -> None:
        """The check point the blocking layers call between work units.

        Raises :class:`ApiError` with ``deadline_exceeded`` when the
        deadline has passed, ``cancelled`` when the token was flipped
        (the edge stopped waiting) — so abandoned work unwinds with the
        same stable codes everything else uses.
        """
        if self.expired:
            overrun = -(self.remaining_ms() or 0.0)
            raise ApiError(
                "deadline_exceeded",
                f"request {self.request_id} exceeded its deadline "
                f"({overrun:.1f}ms over)",
            )
        if self.cancelled:
            raise ApiError(
                "cancelled",
                f"request {self.request_id} was cancelled "
                f"({self.token.reason or 'no reason recorded'})",
            )

    # -- propagation ---------------------------------------------------------

    def use(self) -> "_Use":
        """Install this context as the ambient one for the enclosed
        block (re-entrant; restores whatever was ambient before)."""
        return _Use(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        remaining = self.remaining_ms()
        budget = "inf" if remaining is None else f"{remaining:.1f}ms"
        return (
            f"RequestContext({self.request_id}, remaining={budget}, "
            f"cancelled={self.cancelled}, tags={self.tags})"
        )


class _Use:
    """``with ctx.use():`` — one ``ContextVar.set`` on entry and its
    ``reset`` on exit. A plain class, not a generator context manager:
    every read enters one. Each :meth:`RequestContext.use` call makes a
    fresh handle, so nested blocks restore in order."""

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: RequestContext) -> None:
        self._ctx = ctx

    def __enter__(self) -> RequestContext:
        self._token = _CURRENT.set(self._ctx)
        return self._ctx

    def __exit__(self, exc_type, exc, tb) -> None:
        _CURRENT.reset(self._token)
