"""The HTTP edge: one asyncio event loop that answers reads itself and
coalesces ingest.

:class:`AsyncShoalServer` serves the :mod:`repro.api.http` wire
protocol — the contract's JSON codecs, bodies byte-identical to the
in-process gateway — from one ``asyncio`` event loop, so it holds
thousands of idle keep-alive connections at the cost of a socket each.
All routing and dispatch is delegated to
:class:`~repro.api.http.GatewayCore`; what this module adds is the I/O
and everything that needs a non-blocking edge:

* **Reads on the loop** — every search, recommend and batch runs the
  gateway chain on the event-loop thread, cache hit or miss: it is
  in-memory CPU work, cheaper than a hop to a worker thread and back.
  Each gets a :class:`~repro.api.context.RequestContext` armed with
  its ``timeout_ms`` (or the server default); the backend and the
  router poll it between units of work, so a read whose deadline
  passes stops at the next check point, and one that finishes late is
  answered 504 all the same. Only work that blocks takes the executor:
  analytics (SQLite, under its own time budget), every GET, and the
  ingest flush.

* **Ingest coalescing** — concurrent ``POST /v1/ingest`` calls are
  buffered for up to :data:`COALESCE_MAX_DELAY_S` (or until
  :data:`COALESCE_MAX_EVENTS` queue up) and admitted through
  :meth:`~repro.streaming.ingest.IngestPipe.submit_many`, which covers
  the whole batch with ONE WAL fsync — amortizing the disk barrier that
  dominates single-event writes under fan-in. Durable-before-ack is
  preserved (futures resolve only after ``submit_many`` returns) and so
  are the ``ingest_overloaded`` / ``ingest_unavailable`` backpressure
  codes, including the partial-batch "resubmit only the rest"
  accounting when admission splits a coalesced batch.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api.backends import ShoalBackend
from repro.api.context import RequestContext
from repro.api.contract import (
    AnalyticsRequest,
    ApiError,
)
from repro.api.http import (
    API_PREFIX,
    MAX_BODY_BYTES,
    GatewayCore,
    RawResponse,
    _json_bytes,
    partial_batch_error,
)
from repro.obs.histogram import Histogram
from repro.obs.tracer import traced

__all__ = ["AsyncShoalServer"]

#: A coalesced ingest batch is flushed to the WAL once this many events
#: are pending, or once the oldest has waited :data:`COALESCE_MAX_DELAY_S`.
COALESCE_MAX_EVENTS = 64
COALESCE_MAX_DELAY_S = 0.005

#: Header lines accepted in one request head; past it the request is
#: answered 400 and the socket closed.
MAX_HEADERS = 100

_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    429: "Too Many Requests",
    499: "Client Closed Request",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _response_bytes(status: int, payload: Any, closing: bool) -> bytes:
    """One HTTP/1.1 response; ``payload`` is a JSON dict or a
    :class:`RawResponse`."""
    if isinstance(payload, RawResponse):
        body = payload.body
        content_type = payload.content_type
    else:
        body = _json_bytes(payload)
        content_type = "application/json; charset=utf-8"
    conn_header = "Connection: close\r\n" if closing else ""
    head = (
        f"HTTP/1.1 {status} {_PHRASES.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{conn_header}"
        "\r\n"
    ).encode("latin-1")
    return head + body


#: RFC 9112 request line (section 3), field line (section 5: a token
#: name right up to the colon; the value's surrounding whitespace is
#: stripped after the match, which keeps the match linear) and
#: Content-Length value (section 6.3, at most 19 digits so ``int`` of
#: it is always cheap and never raises).
_REQUEST_LINE = re.compile(r"(\S+)[ \t]+(\S+)[ \t]+HTTP/\d\.\d")
_FIELD_LINE = re.compile(r"([!#$%&'*+.^_`|~0-9A-Za-z-]+):([^\r\n\x00]*)")
_DIGITS = re.compile(r"[0-9]{1,19}")


class _EdgeError(Exception):
    """An :class:`ApiError` plus the keep-alive verdict for this socket."""

    def __init__(self, err: ApiError, close: bool = False):
        super().__init__(err.message)
        self.err = err
        self.close = close


def _bad_head(message: str) -> _EdgeError:
    """A head the edge will not frame: 400, then the socket closes."""
    return _EdgeError(ApiError("bad_request", message), close=True)


class _EdgeStats:
    """The edge's own counters, exposed as ``/v1/metrics``'s
    ``edge`` section. Mutated only on the event-loop thread; read from
    executor threads (single int loads, safe under the GIL)."""

    def __init__(self) -> None:
        self.connections_open = 0
        self.connections_total = 0
        self.deadline_expired = 0
        self.read_stats = Histogram()

    def to_dict(
        self, coalescer: Optional["_IngestCoalescer"]
    ) -> Dict[str, Any]:
        summary = self.read_stats.summary()
        out: Dict[str, Any] = {
            "kind": "async",
            "connections": {
                "open": self.connections_open,
                "total": self.connections_total,
            },
            "deadline_expired": self.deadline_expired,
            "reads": {
                "count": summary.count,
                "p50_ms": summary.p50_ms,
                "p95_ms": summary.p95_ms,
                "p99_ms": summary.p99_ms,
            },
        }
        if coalescer is not None:
            out["coalescer"] = coalescer.stats()
        return out


class _IngestCoalescer:
    """Buffer single ingest POSTs into batched WAL admissions.

    Lives entirely on the event-loop thread (no locks): requests append
    ``(events, future)`` pairs, and a flush — triggered by the pending
    count reaching :data:`COALESCE_MAX_EVENTS` or the oldest entry
    ageing past :data:`COALESCE_MAX_DELAY_S` — pushes everything through
    :meth:`IngestPipe.submit_many` on the executor, then resolves each
    request's future from the admitted prefix. One flush = at most one
    fsync, however many clients were coalesced into it.
    """

    def __init__(self, pipe, run_blocking: Callable):
        self._pipe = pipe
        self._run_blocking = run_blocking
        self._pending: List[Tuple[list, "asyncio.Future"]] = []
        self._pending_events = 0
        self._timer: Optional["asyncio.TimerHandle"] = None
        self._batches = 0
        self._events = 0

    async def submit(self, events: list) -> Dict[str, Any]:
        """Queue pre-validated events; resolves once they are durable."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        self._pending.append((events, future))
        self._pending_events += len(events)
        if self._pending_events >= COALESCE_MAX_EVENTS:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            await self._flush()
        elif self._timer is None:
            self._timer = loop.call_later(COALESCE_MAX_DELAY_S, self._fire)
        return await future

    def _fire(self) -> None:
        self._timer = None
        asyncio.ensure_future(self._flush())

    async def drain(self) -> None:
        """Flush whatever is pending (shutdown path)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        await self._flush()

    async def _flush(self) -> None:
        pending, self._pending = self._pending, []
        self._pending_events = 0
        if not pending:
            return
        flat = [event for events, _ in pending for event in events]

        def flush_batch():
            # Runs on the worker thread so the WAL-append span nests
            # under this one in a single background trace.
            with traced(
                "ingest.coalesce_flush",
                tags={
                    "events": str(len(flat)),
                    "requests": str(len(pending)),
                },
            ):
                return self._pipe.submit_many(flat)

        try:
            admitted = await self._run_blocking(flush_batch)
        except ApiError as exc:
            self._reject_all(pending, exc)
            return
        except Exception as exc:  # pragma: no cover - defensive
            self._reject_all(
                pending, ApiError("backend_error", f"ingest failed: {exc}")
            )
            return
        self._batches += 1
        self._events += len(admitted)
        # Resolve per-request futures from the admitted prefix: fully
        # covered requests ack, the straddling request gets the
        # partial-batch accounting, fully-shed requests backpressure.
        n_admitted = len(admitted)
        idx = 0
        overloaded = ApiError(
            "ingest_overloaded",
            "ingest queue is full; retry with backoff",
        )
        for events, future in pending:
            n = len(events)
            if future.done():  # client task already gone
                idx = min(idx + n, n_admitted)
                continue
            if idx + n <= n_admitted:
                future.set_result(
                    {"accepted": n, "last_seq": admitted[idx + n - 1].seq}
                )
                idx += n
            elif idx < n_admitted:
                accepted = n_admitted - idx
                future.set_exception(
                    partial_batch_error(
                        overloaded, accepted, admitted[-1].seq
                    )
                )
                idx = n_admitted
            else:
                future.set_exception(overloaded)

    @staticmethod
    def _reject_all(pending, exc: ApiError) -> None:
        for _, future in pending:
            if not future.done():
                future.set_exception(exc)

    def stats(self) -> Dict[str, Any]:
        return {
            "batches": self._batches,
            "events": self._events,
            "max_events": COALESCE_MAX_EVENTS,
            "max_delay_ms": COALESCE_MAX_DELAY_S * 1000.0,
        }


class AsyncShoalServer:
    """Serve a backend over HTTP from one asyncio event loop.

    ``port=0`` binds an ephemeral port (read it back from ``.port`` /
    ``.url``) — the pattern tests and examples use. :meth:`start` runs
    the loop on a daemon thread; :meth:`serve_forever` blocks (the CLI
    path). Both are shut down by :meth:`shutdown`, which also closes
    the wrapped backend.
    """

    def __init__(
        self,
        backend: ShoalBackend,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        quiet: bool = True,
        ingest_pipe=None,
        updater=None,
        analytics_engine=None,
        analytics_tailer=None,
        default_timeout_ms: Optional[float] = None,
        max_workers: Optional[int] = None,
        replication_stats=None,
        tracer=None,
    ):
        self._backend = backend
        self._requested = (host, port)
        self._quiet = quiet
        self._ingest_pipe = ingest_pipe
        self._updater = updater
        self._analytics_engine = analytics_engine
        self._analytics_tailer = analytics_tailer
        self._default_timeout_ms = default_timeout_ms
        self._stats = _EdgeStats()
        self._coalescer: Optional[_IngestCoalescer] = None
        self._tracer = tracer
        self._core = GatewayCore(
            backend,
            ingest_pipe=ingest_pipe,
            updater=updater,
            analytics_engine=analytics_engine,
            analytics_tailer=analytics_tailer,
            edge_stats=lambda: self._stats.to_dict(self._coalescer),
            replication_stats=replication_stats,
            tracer=tracer,
            edge_histograms=lambda: (
                {"edge_read_latency_ms": self._stats.read_stats}
                if self._stats.read_stats.count > 0
                else {}
            ),
        )
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers or 32,
            thread_name_prefix="shoal-aio-worker",
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._bound: Optional[Tuple[str, int]] = None
        self._closed = False

    # -- public surface ------------------------------------------------------

    @property
    def backend(self) -> ShoalBackend:
        return self._backend

    @property
    def core(self) -> GatewayCore:
        return self._core

    @property
    def ingest_pipe(self):
        return self._ingest_pipe

    @property
    def host(self) -> str:
        return self._bound[0] if self._bound else self._requested[0]

    @property
    def port(self) -> int:
        return self._bound[1] if self._bound else self._requested[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "AsyncShoalServer":
        """Run the event loop on a background daemon thread."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop,
            name=f"shoal-aio-{self._requested[1]}",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=15.0):
            raise RuntimeError("async edge failed to start in time")
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` / Ctrl-C."""
        if self._thread is not None:
            # start() already runs the loop on its daemon thread; park
            # here so Ctrl-C lands on the caller (who runs shutdown()).
            while self._thread.is_alive():
                self._thread.join(timeout=0.5)
            return
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        main_task = self._loop.create_task(self._main())
        try:
            self._loop.run_until_complete(main_task)
        except KeyboardInterrupt:
            # Resume the loop just long enough for _main's graceful
            # shutdown (close listener, drain the coalescer) to run.
            self._loop.call_soon(self._stop_event.set)
            self._loop.run_until_complete(main_task)

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Stop the loop first: _main drains the coalescer while the
        # ingest pipe is still open, so buffered events are not lost.
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._signal_stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if self._ingest_pipe is not None:
            self._ingest_pipe.close()
        if self._updater is not None:
            self._updater.stop()
        if self._analytics_tailer is not None:
            self._analytics_tailer.stop(drain=True)
        if self._analytics_engine is not None:
            self._analytics_engine.store.close()
        self._backend.close()
        self._executor.shutdown(wait=False)

    def __enter__(self) -> "AsyncShoalServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- event loop lifecycle ------------------------------------------------

    def _signal_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
            leftovers = [
                t for t in asyncio.all_tasks(self._loop) if not t.done()
            ]
            for task in leftovers:
                task.cancel()
            if leftovers:
                self._loop.run_until_complete(
                    asyncio.gather(*leftovers, return_exceptions=True)
                )
        finally:
            self._ready.set()  # never leave start() hanging on a crash
            self._loop.close()

    async def _main(self) -> None:
        self._stop_event = asyncio.Event()
        if self._ingest_pipe is not None:
            self._coalescer = _IngestCoalescer(
                self._ingest_pipe, self._run_blocking
            )
        server = await asyncio.start_server(
            self._handle_conn, self._requested[0], self._requested[1]
        )
        sockname = server.sockets[0].getsockname()
        self._bound = (sockname[0], sockname[1])
        self._ready.set()
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            if self._coalescer is not None:
                await self._coalescer.drain()

    async def _run_blocking(self, fn: Callable):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, fn)

    # -- HTTP/1.1 ------------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._stats.connections_open += 1
        self._stats.connections_total += 1
        try:
            while True:
                try:
                    head = await self._read_head(reader)
                except _EdgeError as exc:
                    writer.write(_response_bytes(
                        exc.err.http_status, exc.err.to_dict(), True
                    ))
                    await writer.drain()
                    break
                if head is None:
                    break
                method, raw_path, headers = head
                keep_alive = headers.get("connection", "").lower() != "close"
                status, payload, close = await self._serve_one(
                    method, raw_path, headers, reader
                )
                closing = close or not keep_alive
                writer.write(_response_bytes(status, payload, closing))
                await writer.drain()
                if closing:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            self._stats.connections_open -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    @staticmethod
    async def _read_head(
        reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, Dict[str, str]]]:
        """Read one request head as ``(method, raw_path, headers)``;
        None when the peer closed or sent something that is not HTTP.

        The request line is read first, so a bare-LF client is refused
        at once; the header section is then one ``readuntil``. Each is
        bounded by the stream's 64 KiB limit. The head is framed as
        RFC 9112 (sections 2.2, 5 and 6.3) says: every line ends in
        CRLF, every field line is ``token ":" value`` (no whitespace
        before the colon, no obs-fold continuation), and
        ``Content-Length`` is ``1*DIGIT``, repeated only with the same
        value. A head the edge will not frame raises :class:`_EdgeError`
        with ``close`` set: the caller answers it and drops the socket,
        so none of its unread bytes is ever parsed as a request.
        """
        try:
            first = await reader.readuntil(b"\n")
            if not first.endswith(b"\r\n"):
                raise _bad_head("request line does not end in CRLF")
            start = _REQUEST_LINE.fullmatch(first[:-2].decode("latin-1"))
            if start is None:
                return None
            # An empty header section is CRLF; any other starts with a
            # field byte and ends in CRLF CRLF.
            section = await reader.readexactly(1)
            if section == b"\r":
                section += await reader.readexactly(1)
            elif section != b"\n":
                section += await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            raise _bad_head("request head exceeds 64 KiB")
        if not section.endswith(b"\r\n"):
            raise _bad_head("header section does not end in CRLF")
        lines = (
            section[:-4].decode("latin-1").split("\r\n")
            if len(section) > 2 else []
        )
        if len(lines) > MAX_HEADERS:
            raise _bad_head(f"more than {MAX_HEADERS} header lines")
        headers: Dict[str, str] = {}
        for line in lines:
            field = _FIELD_LINE.fullmatch(line)
            if field is None:
                raise _bad_head(f"malformed header line {line[:64]!r}")
            name = field.group(1).lower()
            value = field.group(2).strip(" \t")
            if name == "content-length" and (
                not _DIGITS.fullmatch(value)
                or headers.get(name, value) != value
            ):
                raise _bad_head(f"malformed Content-Length {value[:64]!r}")
            headers[name] = value
        return start.group(1), start.group(2), headers

    async def _serve_one(
        self,
        method: str,
        raw_path: str,
        headers: Dict[str, str],
        reader: asyncio.StreamReader,
    ) -> Tuple[int, Any, bool]:
        """Route one request; returns (status, payload, close_socket).
        ``payload`` is a JSON dict or a :class:`RawResponse`."""
        path, _, raw_query = raw_path.partition("?")
        path = path.rstrip("/")
        force_close = False
        try:
            if "transfer-encoding" in headers:
                # Bodies are framed by Content-Length alone; a chunk
                # stream left unread must not be parsed as a request.
                raise _EdgeError(
                    ApiError(
                        "bad_request",
                        "Transfer-Encoding is not supported; "
                        "send a Content-Length body",
                    ),
                    close=True,
                )
            if method == "GET":
                # Keep-alive hygiene: an unexpected GET body is drained
                # (or, when undrainable, the socket is marked for
                # close) and the request still served.
                force_close = await self._drain_body(reader, headers)
                endpoint = self._endpoint(path)
                payload = await self._run_blocking(
                    lambda: self._core.dispatch_get(endpoint, raw_query)
                )
                return 200, payload, force_close
            if method == "POST":
                try:
                    payload = await self._read_body(reader, headers)
                except _EdgeError as body_error:
                    self._endpoint(path)  # prefer not_found
                    raise body_error
                endpoint = self._endpoint(path)
                if endpoint == "ingest":
                    return 200, await self._handle_ingest(payload), False
                return 200, await self._dispatch_read(endpoint, payload), False
            # Any body such a request carries is unread: close rather
            # than parse it as the next request.
            raise _EdgeError(
                ApiError("not_found", f"method {method} is not supported"),
                close=True,
            )
        except _EdgeError as exc:
            return (
                exc.err.http_status,
                exc.err.to_dict(),
                exc.close or force_close,
            )
        except ApiError as err:
            return err.http_status, err.to_dict(), force_close
        except Exception as exc:  # never leak a traceback onto the wire
            err = ApiError("backend_error", str(exc))
            return err.http_status, err.to_dict(), force_close

    @staticmethod
    def _endpoint(path: str) -> str:
        if not path.startswith(API_PREFIX + "/"):
            raise ApiError("not_found", f"no such path: {path}")
        return path[len(API_PREFIX) + 1:]

    async def _read_body(
        self, reader: asyncio.StreamReader, headers: Dict[str, str]
    ) -> Dict[str, Any]:
        """Parse the JSON body with keep-alive hygiene: every failure
        either consumes the declared bytes or closes the socket, so
        leftovers are never parsed as the next request line."""
        length = int(headers.get("content-length", "0"))
        if length <= 0:
            raise _EdgeError(
                ApiError("bad_request", "request body is required")
            )
        if length > MAX_BODY_BYTES:
            raise _EdgeError(
                ApiError(
                    "invalid_argument",
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit",
                ),
                close=True,
            )
        raw = await reader.readexactly(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _EdgeError(
                ApiError("bad_request", f"body is not valid JSON: {exc}")
            )
        if not isinstance(payload, dict):
            raise _EdgeError(
                ApiError("bad_request", "body must be a JSON object")
            )
        return payload

    @staticmethod
    async def _drain_body(
        reader: asyncio.StreamReader, headers: Dict[str, str]
    ) -> bool:
        """Consume a body a GET should not have; True = close socket."""
        length = int(headers.get("content-length", "0"))
        if length > MAX_BODY_BYTES:
            return True
        if length > 0:
            await reader.readexactly(length)
        return False

    # -- reads: one attempt on the loop, under a deadline -------------------

    async def _dispatch_read(
        self, endpoint: str, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Answer one read under its deadline.

        Analytics takes the executor hop: SQLite blocks, under its own
        time budget. Every other read runs the gateway chain right here
        on the loop. Its deadline is cooperative: the backend and the
        router stop at their next check point once it passes, and a read
        that is expired when the chain returns or raises is a 504.
        """
        request = self._core.decode_post(endpoint, payload)
        if isinstance(request, AnalyticsRequest):
            response = await self._run_blocking(
                lambda: self._core.dispatch_request(request)
            )
            return response.to_dict()
        timeout_ms = (
            request.timeout_ms
            if request.timeout_ms is not None
            else self._default_timeout_ms
        )
        ctx = RequestContext.for_request(
            timeout_ms=timeout_ms,
            tags={"edge": "async", "endpoint": endpoint},
            tracer=self._tracer,
        )
        t0 = time.perf_counter()
        with traced("edge.request", context=ctx):
            try:
                with traced("edge.dispatch", context=ctx):
                    response = self._core.dispatch_request(
                        request, context=ctx
                    )
            except ApiError:
                if not ctx.expired:
                    raise
            if ctx.expired:
                self._stats.deadline_expired += 1
                raise ApiError(
                    "deadline_exceeded",
                    f"request {ctx.request_id} exceeded its deadline; "
                    "its remaining shard work was skipped",
                )
        self._stats.read_stats.record(time.perf_counter() - t0)
        return response.to_dict()

    # -- writes: coalescing --------------------------------------------------

    async def _handle_ingest(
        self, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        # Per-request shape validation happens HERE, before coalescing,
        # so one malformed client 400s alone instead of failing the
        # strangers batched alongside it.
        events = self._core.ingest_events_from_payload(payload)
        if self._coalescer is None:  # pragma: no cover - guarded above
            raise ApiError(
                "not_found", "ingest is not enabled on this server"
            )
        return await self._coalescer.submit(events)
