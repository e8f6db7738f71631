"""Golden traces: a fixed request sequence exports fixed span trees.

One deterministic sequence drives the real edge read path
(``AsyncShoalServer._dispatch_read``) over a 4-shard cluster behind the
default middleware stack, plus one background updater fold:

* cache misses and hits;
* a cluster batch;
* an error raised inside the middleware chain;
* a deadline expiry;
* a background ``updater.batch_fold`` with its ``fit.*`` children.

The tracer runs on a clock that advances a fixed tick on every read, so
every start, duration and sampling decision is a pure function of the
spans the sequence opens. The ``GET /v1/trace`` export of every kept
trace, the ids of the dropped ones, and the tracer's stats are compared
byte for byte with ``golden_traces.json``.

Re-record the fixture (only when a change means to alter the traces)::

    PYTHONPATH=src python -m tests.obs.test_trace_golden --write
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import sys
import tempfile
import types
from pathlib import Path

import pytest

from repro.api import ApiError, ClusterBackend, Gateway, SCHEMA_VERSION
from repro.api.aio import AsyncShoalServer
from repro.api.middleware import Middleware, default_middlewares
from repro.obs import Tracer, set_default_tracer

FIXTURE = Path(__file__).with_name("golden_traces.json")

#: Tracer clock tick per read, in seconds: a power of two, so every
#: timestamp and difference is exact in binary.
TICK_S = 2.0 ** -12

WALL_TS = 1_700_000_000.0


class TickClock:
    """Monotonic seconds that advance ``TICK_S`` on every read."""

    def __init__(self) -> None:
        self.now = 1024.0

    def __call__(self) -> float:
        self.now += TICK_S
        return self.now


class FaultMiddleware(Middleware):
    """Fails one query inside the chain, like a backend error would."""

    name = "fault"

    def handle(self, request, call_next):
        if getattr(request, "query", None) == "explode":
            raise ApiError("backend_error", "injected fault")
        return call_next(request)


def _run(coro):
    """Drive a coroutine that never suspends (a read on the loop)."""
    try:
        coro.send(None)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("a read suspended; the edge should answer inline")


def _fold(tracer) -> None:
    """One background updater fold over 25 live events."""
    from repro.core.config import ShoalConfig
    from repro.core.incremental import IncrementalShoal
    from repro.data.marketplace import PROFILES, generate_marketplace
    from repro.data.queries import QueryLogConfig
    from repro.streaming import IngestPipe, StreamingUpdater, WriteAheadLog

    market = generate_marketplace(dataclasses.replace(
        PROFILES["tiny"],
        query_log=QueryLogConfig(n_days=9, events_per_day=300),
    ))
    inc = IncrementalShoal(
        ShoalConfig(),
        {e.entity_id: e.title for e in market.catalog.entities},
        {q.query_id: q.text for q in market.query_log.queries},
        {e.entity_id: e.category_id for e in market.catalog.entities},
        retrain_every=100,
    )
    inc.advance(market.query_log, last_day=6)
    with tempfile.TemporaryDirectory() as tmp:
        pipe = IngestPipe(
            WriteAheadLog(Path(tmp) / "wal", fsync="never"), max_queue=1000
        )
        updater = StreamingUpdater(inc, pipe)
        for e in [e for e in market.query_log.events if e.day > 6][:25]:
            pipe.submit({
                "day": int(e.day),
                "user_id": int(e.user_id),
                "query_id": int(e.query_id),
                "clicked": [int(c) for c in e.clicked_entity_ids],
            })
        set_default_tracer(tracer)
        try:
            assert updater.run_once(timeout_s=0.0) is not None
        finally:
            set_default_tracer(None)


def drive(model, categories, queries) -> dict:
    """Run the fixed sequence; returns the document the fixture holds.

    The caller isolates process state: request ids restart at 1 and the
    exports' wall-clock ``ts`` is pinned (see :func:`_pinned`).
    """
    tracer = Tracer(clock=TickClock(), slowest_per_endpoint=2)
    gateway = Gateway(
        ClusterBackend.from_model(model, 4, entity_categories=categories),
        default_middlewares(cache_size=64) + [FaultMiddleware()],
    )
    server = AsyncShoalServer(gateway, port=0, tracer=tracer)
    q0, q1, q2, q3 = queries[:4]
    sequence = [
        ("search", {"query": q0, "k": 5}),
        ("search", {"query": q1, "k": 5}),
        ("search", {"query": q0, "k": 5}),
        ("batch", {"queries": [q0, q2, "zq1 zx1", q3], "k": 3,
                   "kind": "search"}),
        ("search", {"query": "explode", "k": 5}),
        ("search", {"query": q2, "k": 5, "timeout_ms": 1e-6}),
        ("recommend", {"query": q1, "k": 4}),
        ("recommend", {"query": q1, "k": 4}),
        ("search", {"query": q1, "k": 5}),
        ("search", {"query": q3, "k": 2}),
        ("search", {"query": q0, "k": 5}),
    ]
    outcomes = []
    try:
        for endpoint, body in sequence:
            payload = dict(body, version=SCHEMA_VERSION)
            try:
                _run(server._dispatch_read(endpoint, payload))
                outcomes.append("ok")
            except ApiError as exc:
                outcomes.append(exc.code)
    finally:
        server._executor.shutdown(wait=True)
    _fold(tracer)

    core = server._core
    kept, dropped = [], []
    ids = [f"req-{i}" for i in range(1, len(sequence) + 1)]
    ids += [t[0] for t in tracer.trace_ids() if t[0].startswith("bg-")]
    for rid in ids:
        try:
            trace = core.dispatch_get("trace", f"request_id={rid}")
        except ApiError:
            dropped.append(rid)
            continue
        kept.append(json.loads(json.dumps(trace, ensure_ascii=False)))
    return {
        "outcomes": outcomes,
        "kept": kept,
        "dropped": dropped,
        "stats": tracer.stats(),
    }


class _pinned:
    """Request ids from 1 and a fixed wall clock for the exports."""

    def __enter__(self):
        context = importlib.import_module("repro.api.context")
        tracer_module = importlib.import_module("repro.obs.tracer")
        self._saved = (context._REQUEST_IDS, tracer_module.time)
        context._REQUEST_IDS = itertools.count(1)
        shim = types.SimpleNamespace(**vars(self._saved[1]))
        shim.time = lambda: WALL_TS
        tracer_module.time = shim
        return self

    def __exit__(self, *exc):
        context = importlib.import_module("repro.api.context")
        tracer_module = importlib.import_module("repro.obs.tracer")
        context._REQUEST_IDS, tracer_module.time = self._saved
        return None


def _render(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True, ensure_ascii=False) + "\n"


def _queries(marketplace):
    return sorted({q.text for q in marketplace.query_log.queries})


@pytest.fixture(scope="module")
def golden_run(tiny_model, tiny_marketplace):
    categories = {
        e.entity_id: e.category_id for e in tiny_marketplace.catalog.entities
    }
    with _pinned():
        return drive(tiny_model, categories, _queries(tiny_marketplace))


def test_sequence_covers_every_kind_of_trace(golden_run):
    assert golden_run["outcomes"] == [
        "ok", "ok", "ok", "ok", "backend_error", "deadline_exceeded",
        "ok", "ok", "ok", "ok", "ok",
    ]
    sampled = {t["sampled"] for t in golden_run["kept"]}
    assert sampled == {"slow", "error", "deadline"}
    assert golden_run["dropped"], "the sequence must drop some traces"
    assert any(t["endpoint"] == "updater.batch_fold"
               for t in golden_run["kept"])


def test_exports_match_the_golden_fixture_byte_for_byte(golden_run):
    assert _render(golden_run) == FIXTURE.read_text(encoding="utf-8")


def _main(argv) -> int:
    from repro.core.config import ShoalConfig
    from repro.core.pipeline import ShoalPipeline
    from repro.data.marketplace import PROFILES, generate_marketplace

    market = generate_marketplace(PROFILES["tiny"])
    model = ShoalPipeline(ShoalConfig()).fit(market)
    categories = {e.entity_id: e.category_id for e in market.catalog.entities}
    with _pinned():
        text = _render(drive(model, categories, _queries(market)))
    if "--write" in argv:
        FIXTURE.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
