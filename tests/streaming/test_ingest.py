"""IngestPipe: validation, shed-only backpressure, batching by count/age."""

from __future__ import annotations

import pytest

from repro.api.contract import ApiError
from repro.streaming.ingest import IngestPipe
from repro.streaming.wal import WriteAheadLog


@pytest.fixture
def wal(tmp_path) -> WriteAheadLog:
    return WriteAheadLog(tmp_path, fsync="never")


def _event(i: int = 0) -> dict:
    return {"day": 7, "user_id": 1, "query_id": i, "clicked": [1, 2]}


def _code_of(fn) -> str:
    with pytest.raises(ApiError) as excinfo:
        fn()
    return excinfo.value.code


class TestValidation:
    def test_accepts_and_persists_a_valid_event(self, wal):
        pipe = IngestPipe(wal)
        event = pipe.submit(_event(5))
        assert event.seq == 1 and event.query_id == 5
        assert wal.event_count() == 1  # durable before the ack returned

    def test_missing_required_fields(self, wal):
        pipe = IngestPipe(wal)
        assert _code_of(lambda: pipe.submit({"day": 7})) == "bad_request"
        assert _code_of(lambda: pipe.submit({"query_id": 1})) == "bad_request"

    def test_unknown_fields_rejected(self, wal):
        pipe = IngestPipe(wal)
        assert (
            _code_of(lambda: pipe.submit({**_event(), "surprise": 1}))
            == "bad_request"
        )

    def test_type_and_bound_errors(self, wal):
        pipe = IngestPipe(wal)
        assert (
            _code_of(lambda: pipe.submit({**_event(), "day": "7"}))
            == "bad_request"
        )
        assert (
            _code_of(lambda: pipe.submit({**_event(), "day": -1}))
            == "invalid_argument"
        )
        assert (
            _code_of(lambda: pipe.submit({**_event(), "clicked": "1,2"}))
            == "bad_request"
        )
        assert (
            _code_of(lambda: pipe.submit({**_event(), "query_text": "  "}))
            == "invalid_argument"
        )

    def test_ids_past_int64_rejected(self, wal):
        """Ids and days are stored in int64 window columns."""
        pipe = IngestPipe(wal)
        for field, value in (
            ("query_id", 2**63), ("day", 2**64), ("clicked", [1, 2**63]),
        ):
            assert (
                _code_of(lambda: pipe.submit({**_event(), field: value}))
                == "invalid_argument"
            ), field
        pipe.submit({**_event(), "query_id": 2**63 - 1})

    def test_rejected_events_never_touch_the_wal(self, wal):
        pipe = IngestPipe(wal)
        _code_of(lambda: pipe.submit({"day": 7}))
        assert wal.event_count() == 0


class TestBackpressure:
    def test_shed_rejects_with_stable_code_when_full(self, wal):
        pipe = IngestPipe(wal, max_queue=2)
        pipe.submit(_event(0))
        pipe.submit(_event(1))
        assert _code_of(lambda: pipe.submit(_event(2))) == "ingest_overloaded"
        assert pipe.stats()["shed"] == 1
        # Shed events are NOT durable: the admission receipt is the WAL
        # record, and this event was never admitted.
        assert wal.event_count() == 2

    def test_batch_admits_the_prefix_that_fits_and_sheds_the_rest(self, wal):
        pipe = IngestPipe(wal, max_queue=3)
        pipe.submit(_event(0))
        events = pipe.submit_many([_event(i) for i in (1, 2, 3, 4)])
        assert [e.query_id for e in events] == [1, 2]
        assert pipe.stats()["shed"] == 2
        assert wal.event_count() == 3

    def test_closed_pipe_refuses_submissions(self, wal):
        pipe = IngestPipe(wal)
        pipe.submit(_event(0))
        pipe.close()
        assert _code_of(lambda: pipe.submit(_event(1))) == "ingest_unavailable"
        # Queued events remain drainable after close.
        assert len(pipe.take_batch(max_events=8, max_age_s=0, timeout_s=0)) == 1


class TestBatching:
    def test_batch_fills_to_count(self, wal):
        pipe = IngestPipe(wal)
        for i in range(10):
            pipe.submit(_event(i))
        batch = pipe.take_batch(max_events=4, max_age_s=10.0, timeout_s=0.1)
        assert [e.query_id for e in batch] == [0, 1, 2, 3]
        assert pipe.queue_depth() == 6

    def test_partial_batch_releases_on_age(self, wal):
        ticks = iter([0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 10.0])
        pipe = IngestPipe(wal, clock=lambda: next(ticks, 10.0))
        pipe.submit(_event(0))
        batch = pipe.take_batch(max_events=100, max_age_s=1.0, timeout_s=0.1)
        assert len(batch) == 1  # age tripped, count did not

    def test_empty_timeout_returns_empty(self, wal):
        pipe = IngestPipe(wal)
        assert pipe.take_batch(max_events=4, max_age_s=0, timeout_s=0.01) == []

    def test_batches_preserve_order_across_takes(self, wal):
        pipe = IngestPipe(wal)
        for i in range(7):
            pipe.submit(_event(i))
        seen = []
        while True:
            batch = pipe.take_batch(max_events=3, max_age_s=0, timeout_s=0.01)
            if not batch:
                break
            seen.extend(e.seq for e in batch)
        assert seen == [1, 2, 3, 4, 5, 6, 7]
