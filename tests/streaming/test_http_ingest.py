"""The write path over HTTP: /v1/ingest, /metrics, backpressure codes."""

from __future__ import annotations

import pytest

import json
import os
import signal
import threading
import urllib.request

from repro.api import (
    ApiError,
    AsyncShoalServer,
    Gateway,
    SearchRequest,
    ShoalClient,
    open_backend,
)
from repro.obs import Tracer, set_default_tracer
from repro.streaming import IngestPipe, WriteAheadLog

from tests.streaming.conftest import (
    event_payload,
    fold_process,
    make_base_inc,
    serving_tier,
    wait_for,
)


@pytest.fixture
def served_with_ingest(tmp_path, stream_market, stream_inputs):
    """A live gateway server with ingest admission and no fold: nothing
    applies what is admitted, so the fold's lag is everything."""
    inc = make_base_inc(stream_market, stream_inputs)
    gateway = Gateway(serving_tier(inc))
    wal = WriteAheadLog(tmp_path / "wal", fsync="never")
    pipe = IngestPipe(wal, max_queue=64)
    server = AsyncShoalServer(gateway, port=0, ingest_pipe=pipe)
    server.start()
    client = ShoalClient(server.url, timeout=10.0)
    try:
        yield server, client, pipe
    finally:
        server.shutdown()


@pytest.fixture
def served_with_fold(tmp_path, base_snapshot):
    """What ``serve-http --load SNAP --ingest-wal`` runs: a gateway over
    the snapshot, and a fold process whose generations it swaps in."""
    tracer = Tracer()
    set_default_tracer(tracer)  # as serve-http installs it
    gateway = Gateway(open_backend(f"snapshot:{base_snapshot}"))
    pipe, fold = fold_process(base_snapshot, tmp_path, gateway, tracer=tracer)
    server = AsyncShoalServer(
        gateway, port=0, ingest_pipe=pipe, updater=fold, tracer=tracer
    )
    fold.start()
    server.start()
    client = ShoalClient(server.url, timeout=10.0)
    try:
        yield server, client, fold, tracer
    finally:
        server.shutdown()
        set_default_tracer(None)


class TestHttpIngest:
    def test_single_event_accepted_with_seq(
        self, served_with_ingest, live_events
    ):
        _, client, pipe = served_with_ingest
        out = client.ingest(event_payload(live_events[0]))
        assert out == {"accepted": 1, "last_seq": 1}
        assert pipe.queue_depth() == 1

    def test_batch_of_events_accepted(self, served_with_ingest, live_events):
        _, client, pipe = served_with_ingest
        payloads = [event_payload(e) for e in live_events[:5]]
        out = client.ingest_batch(payloads)
        assert out == {"accepted": 5, "last_seq": 5}
        assert pipe.queue_depth() == 5

    def test_malformed_event_maps_to_400(self, served_with_ingest):
        _, client, _ = served_with_ingest
        with pytest.raises(ApiError) as excinfo:
            client.ingest({"day": "tomorrow", "query_id": 1})
        assert excinfo.value.code == "bad_request"

    def test_overload_maps_to_429_code(self, served_with_ingest, live_events):
        _, client, pipe = served_with_ingest
        for e in live_events[:64]:  # the fold's lag reaches the bound
            pipe.submit(event_payload(e))
        with pytest.raises(ApiError) as excinfo:
            client.ingest(event_payload(live_events[64]))
        assert excinfo.value.code == "ingest_overloaded"
        assert excinfo.value.http_status == 429

    def test_closed_pipe_maps_to_503_code(
        self, served_with_ingest, live_events
    ):
        _, client, pipe = served_with_ingest
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


def _wait_installed(fold, number: int) -> None:
    wait_for(
        lambda: fold.installer.installed >= number,
        what=f"generation {number} to be installed",
    )


class TestMetricsScrape:
    def test_metrics_cover_read_write_and_updater(
        self, served_with_fold, live_events, stream_market
    ):
        _, client, fold, _ = served_with_fold
        query = stream_market.query_log.queries[0].text
        client.search(SearchRequest(query=query, k=3))
        for e in live_events[:10]:
            client.ingest(event_payload(e))
        _wait_installed(fold, 1)

        metrics = client.metrics()
        assert metrics.backend["backend"] == "gateway"
        assert metrics.ingest["accepted"] == 10
        assert metrics.ingest["wal"]["appended"] == 10
        assert metrics.ingest["queue_depth"] == 0
        updater = metrics.updater
        assert updater["events_applied"] == 10
        assert updater["applied_seq"] == 10
        assert updater["events_duplicate"] == 0
        assert updater["swap_failures"] == 0
        assert updater["generations"] >= 1
        assert updater["switch"]["swaps"] >= 1
        # The fold's cost stays visible, in the process that paid it.
        assert updater["fold_process"]["pid"] == fold.pid != os.getpid()
        assert updater["fold_process"]["cpu_s"] > 0
        assert metrics.analytics is None  # no analytics tier attached

    def test_end_to_end_ingest_to_swap_over_http(
        self, served_with_fold, live_events, stream_market
    ):
        """Write through the wire, fold in the child, and read the new
        window — all through one HTTP server, zero failed reads."""
        _, client, fold, _ = served_with_fold
        for e in live_events[:50]:
            client.ingest(event_payload(e))
        wait_for(
            lambda: fold.switch.current.applied_seq == 50,
            what="the generation covering seq 50",
        )
        # Post-swap reads flow through the same edge and new model.
        fresh = open_backend(f"snapshot:{fold.switch.current.snapshot_dir}")
        for q in sorted(
            {q.text for q in stream_market.query_log.queries}
        )[:10]:
            request = SearchRequest(query=q, k=5)
            assert client.search(request) == fresh.search(request)

    def test_fold_spans_reach_the_serving_tracer(
        self, served_with_fold, live_events
    ):
        """The fold runs in another process; its span tree is folded
        into the server's tracer, so /v1/trace and shoal_span_self_ms
        show it."""
        _, client, fold, tracer = served_with_fold
        for e in live_events[:20]:
            client.ingest(event_payload(e))
        _wait_installed(fold, 1)
        wait_for(
            lambda: "updater.batch_fold" in tracer.self_time_histograms(),
            what="the fold's spans",
        )
        folds = [
            rid for rid, endpoint, _ in tracer.trace_ids()
            if endpoint == "updater.batch_fold"
        ]
        with urllib.request.urlopen(
            f"{client.base_url}/v1/trace?request_id={folds[-1]}"
        ) as resp:
            trace = json.loads(resp.read())
        names = {span["name"] for span in trace["spans"]}
        assert "fit.clustering" in names and "fit.taxonomy" in names
        prom = client.metrics_prom()
        assert 'shoal_span_self_ms_count{span="updater.batch_fold"}' in prom
        assert 'shoal_span_self_ms_count{span="fit.clustering"}' in prom
        assert 'span="updater.install"' in prom


class TestFoldOutsideTheServer:
    def test_metrics_and_search_answer_while_a_fold_is_held(
        self, served_with_fold, live_events, stream_market
    ):
        """Hold the fold open — the child stopped mid-fold, on its own
        report that the fold began — and read the server: the metrics
        scrape and a search both answer, because no serving-side lock
        is held by a fold."""
        _, client, fold, _ = served_with_fold
        query = stream_market.query_log.queries[0].text
        wait_for(lambda: fold.stats_dict().get("last_day") is not None,
                 what="the fold process to start")
        held = None
        for attempt in range(3):
            batch = live_events[20 * attempt:20 * (attempt + 1)]
            client.ingest_batch([event_payload(e) for e in batch])
            wait_for(
                lambda: "folding" in fold.stats_dict()
                or fold.installer.installed > attempt,
                what="the fold to begin",
            )
            os.kill(fold.pid, signal.SIGSTOP)
            if "folding" in fold.stats_dict():
                held = fold.stats_dict()["folding"]
                break
            os.kill(fold.pid, signal.SIGCONT)  # it finished first; again
        assert held is not None, "never caught the fold in progress"
        try:
            quick = ShoalClient(client.base_url, timeout=2.0)
            metrics = quick.metrics()
            assert metrics.updater["folding"] == held
            assert quick.search(SearchRequest(query=query, k=3)).hits
        finally:
            os.kill(fold.pid, signal.SIGCONT)
        _wait_installed(fold, held)


class TestFoldProcessCrash:
    def test_killed_child_is_respawned_and_catches_up(
        self, served_with_fold, live_events, stream_market
    ):
        """SIGKILL the fold child mid-stream: reads never fail, a new
        child starts from the newest generation, and every acknowledged
        event is applied."""
        _, client, fold, _ = served_with_fold
        pool = sorted({q.text for q in stream_market.query_log.queries})[:20]
        stop = threading.Event()
        errors, reads = [], [0]

        def reader():
            reader_client = ShoalClient(client.base_url, timeout=10.0)
            i = 0
            while not stop.is_set():
                try:
                    reader_client.search(
                        SearchRequest(query=pool[i % len(pool)], k=5)
                    )
                    reads[0] += 1
                except Exception as exc:  # noqa: BLE001 - the regression
                    errors.append(exc)
                i += 1

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        try:
            for e in live_events[:30]:
                client.ingest(event_payload(e))
            _wait_installed(fold, 1)
            first = fold.pid
            os.kill(first, signal.SIGKILL)
            for e in live_events[30:60]:
                client.ingest(event_payload(e))
            wait_for(lambda: fold.restarts == 1 and fold.running,
                     what="a new fold process")
            wait_for(lambda: fold.applied_seq == 60, what="seq 60 applied")
            wait_for(
                lambda: fold.switch.current.applied_seq == 60,
                what="the generation covering seq 60",
            )
        finally:
            stop.set()
            thread.join(timeout=10)
        assert fold.pid != first
        assert not errors, f"reads failed across the crash: {errors[:3]}"
        assert reads[0] > 0
        stats = fold.stats_dict()
        assert stats["fold_process"]["restarts"] == 1
        assert stats["events_applied"] == 60
        assert stats["events_duplicate"] == 0

    def test_stopping_the_server_stops_the_child(self, served_with_fold):
        server, _, fold, _ = served_with_fold
        wait_for(lambda: fold.running, what="the fold process")
        proc = fold._proc
        server.shutdown()
        assert proc.poll() is not None
        assert not fold.running
