"""Read-transparency across a generation hot-swap (acceptance gate).

The property: after the streaming subsystem ingests live events and
hot-swaps the resulting generation into the serving tier, every
answer — search hits and recommendation slates — is **byte-identical**
to a fresh service fitted from scratch on the same cumulative log. And
*during* the swap, every concurrent answer is byte-identical to either
the old or the new generation's answer — never an error, never a mix.

The expensive state (base fit, ingest, swap, fresh refit) is built once
per module; hypothesis then drives queries and k through it.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import RecommendRequest, SearchRequest
from repro.streaming import (
    GenerationSwitch,
    IngestPipe,
    StreamingUpdater,
    WriteAheadLog,
)

from tests.streaming.conftest import (
    BASE_LAST_DAY,
    event_payload,
    make_base_inc,
    serving_tier,
)

N_LIVE = 250  # live events streamed through the WAL before the swap


def _search(backend, query, k):
    return backend.search(SearchRequest(query=query, k=k)).hits


def _recommend(backend, query, k):
    return backend.recommend(RecommendRequest(query=query, k=k)).entity_ids


@pytest.fixture(scope="module")
def swapped_world(
    tmp_path_factory, stream_market, stream_inputs, live_events
):
    """The streamed-and-swapped tier plus the fresh-refit reference.

    Returns (backend, fresh_service_backend, query_pool): the first was
    hot-swapped to the generation the updater produced from the WAL;
    the second was fitted cold by a brand new maintainer over the same
    cumulative log.
    """
    tmp_path = tmp_path_factory.mktemp("hotswap")
    inc = make_base_inc(stream_market, stream_inputs)
    single = serving_tier(inc)
    switch = GenerationSwitch().attach(single)

    wal = WriteAheadLog(tmp_path / "wal", fsync="never")
    pipe = IngestPipe(wal, max_queue=10_000)
    updater = StreamingUpdater(inc, pipe, switch=switch)
    applied = live_events[:N_LIVE]
    for e in applied:
        pipe.submit(event_payload(e))
    generation = updater.run_once(timeout_s=0.0)
    assert generation is not None and generation.applied_seq == N_LIVE
    assert updater.stats().swap_failures == 0

    # The reference: a brand-new maintainer fitted on the same
    # cumulative log (base window + the applied live events), no
    # streaming machinery involved.
    last_day = max(e.day for e in applied)
    fresh_inc = make_base_inc(stream_market, stream_inputs)
    cumulative = _cumulative_log(stream_market.query_log, applied)
    fresh_inc.advance(cumulative, last_day=last_day)
    fresh = serving_tier(fresh_inc)

    pool = sorted({q.text for q in stream_market.query_log.queries})
    return single, fresh, pool


def _cumulative_log(base_log, live):
    """base events ∪ the applied live events, as one QueryLog."""
    from repro.data.queries import QueryLog

    base_events = [e for e in base_log.events if e.day <= BASE_LAST_DAY]
    return QueryLog(base_log.queries, base_events + list(live))


class TestTransparencyAfterSwap:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data(), k=st.integers(min_value=1, max_value=10))
    def test_search_byte_identical(self, swapped_world, data, k):
        single, fresh, pool = swapped_world
        query = data.draw(st.sampled_from(pool))
        assert _search(single, query, k) == _search(fresh, query, k)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data(), k=st.integers(min_value=1, max_value=12))
    def test_recommend_byte_identical(self, swapped_world, data, k):
        single, fresh, pool = swapped_world
        query = data.draw(st.sampled_from(pool))
        assert _recommend(single, query, k) == _recommend(fresh, query, k)

    def test_every_pool_query_identical_exhaustively(self, swapped_world):
        """Belt and braces on top of hypothesis: the whole pool."""
        single, fresh, pool = swapped_world
        for query in pool:
            assert _search(single, query, 5) == _search(fresh, query, 5)


class TestTransparencyDuringSwap:
    def test_concurrent_reads_see_old_or_new_never_broken(
        self, tmp_path, stream_market, stream_inputs, live_events
    ):
        """Hammer the tier from reader threads while the generation
        swap happens; every recorded answer must equal the old OR the
        new generation's answer for that query, and no read may fail."""
        inc = make_base_inc(stream_market, stream_inputs)
        single = serving_tier(inc)
        switch = GenerationSwitch().attach(single)

        pool = sorted({q.text for q in stream_market.query_log.queries})[:40]
        old_answers = {q: _search(single, q, 5) for q in pool}

        wal = WriteAheadLog(tmp_path / "wal", fsync="never")
        pipe = IngestPipe(wal, max_queue=10_000)
        updater = StreamingUpdater(inc, pipe, switch=switch)
        for e in live_events[:150]:
            pipe.submit(event_payload(e))

        stop = threading.Event()
        errors, observations = [], []

        def reader():
            i = 0
            while not stop.is_set():
                q = pool[i % len(pool)]
                try:
                    observations.append((q, tuple(_search(single, q, 5))))
                except Exception as exc:  # noqa: BLE001 - the regression
                    errors.append(exc)
                i += 1

        threads = [
            threading.Thread(target=reader, daemon=True) for _ in range(4)
        ]
        for t in threads:
            t.start()
        try:
            generation = updater.run_once(timeout_s=0.0)  # swap happens here
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)

        assert generation is not None
        assert not errors, f"reads failed during the swap: {errors[:3]}"
        new_answers = {q: tuple(_search(single, q, 5)) for q in pool}
        for q, got in observations:
            assert got == tuple(old_answers[q]) or got == new_answers[q], (
                f"answer for {q!r} during the swap matches neither the "
                f"old nor the new generation"
            )
        assert len(observations) > 100  # the readers actually overlapped

    def test_async_edge_reads_see_old_or_new_never_broken(
        self, tmp_path, stream_market, stream_inputs, live_events
    ):
        """Same property, observed through the asyncio HTTP edge: while
        the generation swaps underneath, every wire answer must be
        byte-identical to the old or the new generation's answer —
        never a 5xx, never a blend."""
        import http.client
        import json

        from repro.api.aio import AsyncShoalServer

        inc = make_base_inc(stream_market, stream_inputs)
        single = serving_tier(inc)
        switch = GenerationSwitch().attach(single)

        pool = sorted({q.text for q in stream_market.query_log.queries})[:20]

        wal = WriteAheadLog(tmp_path / "wal", fsync="never")
        pipe = IngestPipe(wal, max_queue=10_000)
        updater = StreamingUpdater(inc, pipe, switch=switch)
        for e in live_events[:150]:
            pipe.submit(event_payload(e))

        server = AsyncShoalServer(single, port=0).start()

        def wire_search(server, query):
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            try:
                conn.request(
                    "POST", "/v1/search",
                    body=json.dumps({"query": query, "k": 5}).encode(),
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                return resp.status, resp.read()
            finally:
                conn.close()

        old_answers = {q: wire_search(server, q)[1] for q in pool}
        stop = threading.Event()
        errors, observations = [], []

        def reader():
            i = 0
            while not stop.is_set():
                q = pool[i % len(pool)]
                status, body = wire_search(server, q)
                if status != 200:
                    errors.append((status, body))
                else:
                    observations.append((q, body))
                i += 1

        threads = [
            threading.Thread(target=reader, daemon=True) for _ in range(4)
        ]
        for t in threads:
            t.start()
        try:
            generation = updater.run_once(timeout_s=0.0)  # swap happens
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)

        try:
            assert generation is not None
            assert not errors, (
                f"wire reads failed during the swap: {errors[:3]}"
            )
            new_answers = {q: wire_search(server, q)[1] for q in pool}
            for q, body in observations:
                assert body in (old_answers[q], new_answers[q]), (
                    f"wire answer for {q!r} during the swap matches "
                    f"neither the old nor the new generation"
                )
            assert len(observations) > 50
        finally:
            server.shutdown()
