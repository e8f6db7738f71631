"""TrafficReplayer write-traffic mode: mixed read+write replay."""

from __future__ import annotations

import pytest

from repro.serving import TrafficReplayer, WorkloadConfig, build_workload
from repro.serving.replay import build_write_workload
from repro.streaming import IngestPipe, WriteAheadLog

from tests.streaming.conftest import (
    BASE_LAST_DAY,
    make_base_inc,
    serving_tier,
)


@pytest.fixture
def read_workload(stream_market):
    return build_workload(
        stream_market.query_log.queries,
        stream_market.scenarios,
        WorkloadConfig(n_requests=120, profile="steady", seed=3),
    )


class TestBuildWriteWorkload:
    def test_events_are_wire_shaped_and_restamped(self, stream_market):
        writes = build_write_workload(
            stream_market.query_log, 50, day=BASE_LAST_DAY + 1, seed=1
        )
        assert len(writes) == 50
        for w in writes:
            assert set(w) == {"day", "user_id", "query_id", "clicked"}
            assert w["day"] == BASE_LAST_DAY + 1

    def test_empty_log_rejected(self, stream_market):
        from repro.data.queries import QueryLog

        with pytest.raises(ValueError):
            build_write_workload(
                QueryLog(stream_market.query_log.queries, []), 5
            )


class TestMixedReplay:
    def test_writes_interleave_into_the_pipe(
        self, tmp_path, stream_market, stream_inputs, read_workload
    ):
        inc = make_base_inc(stream_market, stream_inputs)
        backend = serving_tier(inc)
        wal = WriteAheadLog(tmp_path / "wal", fsync="never")
        pipe = IngestPipe(wal, max_queue=10_000)
        writes = build_write_workload(
            stream_market.query_log, 40, day=BASE_LAST_DAY + 1
        )
        report = TrafficReplayer(
            backend, k=5, ingest_target=pipe
        ).replay(read_workload, writes=writes, write_every=10)
        assert report.n_requests == 120
        assert report.n_writes == 12  # one write per 10 reads
        assert report.n_writes_rejected == 0
        assert pipe.queue_depth() == 12
        assert wal.event_count() == 12
        assert "12 writes" in report.summary()

    def test_shed_writes_are_counted_not_raised(
        self, tmp_path, stream_market, stream_inputs, read_workload
    ):
        inc = make_base_inc(stream_market, stream_inputs)
        backend = serving_tier(inc)
        wal = WriteAheadLog(tmp_path / "wal", fsync="never")
        pipe = IngestPipe(wal, max_queue=3)
        writes = build_write_workload(
            stream_market.query_log, 40, day=BASE_LAST_DAY + 1
        )
        report = TrafficReplayer(
            backend, k=5, ingest_target=pipe
        ).replay(read_workload, writes=writes, write_every=10)
        assert report.n_writes == 12
        assert report.n_writes_rejected == 9  # queue holds 3, rest shed
        assert pipe.queue_depth() == 3

    def test_read_only_replay_unchanged(
        self, stream_market, stream_inputs, read_workload
    ):
        inc = make_base_inc(stream_market, stream_inputs)
        backend = serving_tier(inc)
        report = TrafficReplayer(backend, k=5).replay(read_workload)
        assert report.n_writes == 0
        assert "writes" not in report.summary()

    def test_write_mode_without_ingest_surface_is_an_error(
        self, stream_market, stream_inputs, read_workload
    ):
        inc = make_base_inc(stream_market, stream_inputs)
        backend = serving_tier(inc)
        with pytest.raises(ValueError, match="write-mode replay"):
            TrafficReplayer(backend, k=5).replay(
                read_workload, writes=[{"day": 7, "query_id": 0}]
            )
