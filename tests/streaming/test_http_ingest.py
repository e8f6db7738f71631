"""The write path over HTTP: /v1/ingest, /metrics, backpressure codes."""

from __future__ import annotations

import pytest

from repro.api import (
    ApiError,
    AsyncShoalServer,
    Gateway,
    SearchRequest,
    ServiceBackend,
    ShoalClient,
)
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


@pytest.fixture
def served_with_ingest(tmp_path, stream_market, stream_inputs):
    """A live gateway server with the full write path attached."""
    inc = make_base_inc(stream_market, stream_inputs)
    backend = serving_tier(inc)
    gateway = Gateway(backend)
    switch = GenerationSwitch().attach(backend).attach(gateway)
    wal = WriteAheadLog(tmp_path / "wal", fsync="never")
    pipe = IngestPipe(wal, max_queue=64)
    updater = StreamingUpdater(inc, pipe, switch=switch)
    updater.seed_log(stream_market.query_log.window(0, BASE_LAST_DAY))
    server = AsyncShoalServer(
        gateway, port=0, ingest_pipe=pipe, updater=updater
    )
    server.start()
    client = ShoalClient(server.url, timeout=10.0)
    try:
        yield server, client, pipe, updater
    finally:
        server.shutdown()


class TestHttpIngest:
    def test_single_event_accepted_with_seq(
        self, served_with_ingest, live_events
    ):
        _, client, pipe, _ = served_with_ingest
        out = client.ingest(event_payload(live_events[0]))
        assert out == {"accepted": 1, "last_seq": 1}
        assert pipe.queue_depth() == 1

    def test_batch_of_events_accepted(self, served_with_ingest, live_events):
        _, client, pipe, _ = served_with_ingest
        payloads = [event_payload(e) for e in live_events[:5]]
        out = client.ingest_batch(payloads)
        assert out == {"accepted": 5, "last_seq": 5}
        assert pipe.queue_depth() == 5

    def test_malformed_event_maps_to_400(self, served_with_ingest):
        _, client, _, _ = served_with_ingest
        with pytest.raises(ApiError) as excinfo:
            client.ingest({"day": "tomorrow", "query_id": 1})
        assert excinfo.value.code == "bad_request"

    def test_overload_maps_to_429_code(self, served_with_ingest, live_events):
        _, client, pipe, _ = served_with_ingest
        for e in live_events[:64]:  # fill the bounded queue exactly
            pipe.submit(event_payload(e))
        with pytest.raises(ApiError) as excinfo:
            client.ingest(event_payload(live_events[64]))
        assert excinfo.value.code == "ingest_overloaded"
        assert excinfo.value.http_status == 429

    def test_closed_pipe_maps_to_503_code(
        self, served_with_ingest, live_events
    ):
        _, client, pipe, _ = served_with_ingest
        pipe.close()
        with pytest.raises(ApiError) as excinfo:
            client.ingest(event_payload(live_events[0]))
        assert excinfo.value.code == "ingest_unavailable"
        assert excinfo.value.http_status == 503

    def test_ingest_404_when_not_enabled(self, tmp_path, stream_market, stream_inputs):
        inc = make_base_inc(stream_market, stream_inputs)
        server = AsyncShoalServer(
            Gateway(serving_tier(inc)), port=0
        )
        server.start()
        try:
            client = ShoalClient(server.url, timeout=10.0)
            with pytest.raises(ApiError) as excinfo:
                client.ingest({"day": 7, "query_id": 0})
            assert excinfo.value.code == "not_found"
        finally:
            server.shutdown()


class TestMetricsScrape:
    def test_metrics_cover_read_write_and_updater(
        self, served_with_ingest, live_events, stream_market
    ):
        _, client, _, updater = served_with_ingest
        query = stream_market.query_log.queries[0].text
        client.search(SearchRequest(query=query, k=3))
        for e in live_events[:10]:
            client.ingest(event_payload(e))
        generation = updater.run_once(timeout_s=0.0)
        assert generation is not None

        metrics = client.metrics()
        assert metrics.backend["backend"] == "gateway"
        assert metrics.ingest["accepted"] == 10
        assert metrics.ingest["wal"]["appended"] == 10
        assert metrics.updater["events_applied"] == 10
        assert metrics.updater["applied_seq"] == 10
        assert metrics.updater["generations"] == 1
        assert metrics.updater["switch"]["swaps"] == 1
        assert metrics.analytics is None  # no analytics tier attached

    def test_end_to_end_ingest_to_swap_over_http(
        self, served_with_ingest, live_events, stream_market
    ):
        """Write through the wire, update, and read the new window —
        all through one HTTP server, zero failed reads."""
        _, client, _, updater = served_with_ingest
        for e in live_events[:50]:
            client.ingest(event_payload(e))
        generation = updater.run_once(timeout_s=0.0)
        assert generation is not None and generation.applied_seq == 50
        # Post-swap reads flow through the same edge and new model.
        fresh = ServiceBackend.from_model(
            generation.model,
            entity_categories=generation.entity_categories,
        )
        for q in sorted(
            {q.text for q in stream_market.query_log.queries}
        )[:10]:
            request = SearchRequest(query=q, k=5)
            assert client.search(request) == fresh.search(request)
