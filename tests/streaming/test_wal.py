"""WriteAheadLog: durability, checksums, torn-tail recovery, compaction."""

from __future__ import annotations

import json

import pytest

from repro.streaming.wal import (
    IngestEvent,
    WalCorruption,
    WriteAheadLog,
    read_checkpoint,
    write_checkpoint,
)


def _fill(wal: WriteAheadLog, n: int, *, day: int = 7) -> list:
    return [
        wal.append(
            day=day,
            user_id=i % 5,
            query_id=i,
            clicked_entity_ids=(i, i + 1),
        )
        for i in range(n)
    ]


class TestAppendReplay:
    def test_round_trip_preserves_every_field(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            wal.append(
                day=7,
                user_id=3,
                query_id=11,
                clicked_entity_ids=(4, 9),
                query_text="beach dress",
            )
        replayed = list(WriteAheadLog(tmp_path, fsync="never").replay())
        assert replayed == [
            IngestEvent(
                seq=1,
                day=7,
                user_id=3,
                query_id=11,
                clicked_entity_ids=(4, 9),
                query_text="beach dress",
            )
        ]

    def test_append_writes_the_bytes_append_many_writes(self, tmp_path):
        batch = [
            {"day": 7, "user_id": 3, "query_id": 11,
             "clicked_entity_ids": (4, 9), "query_text": "beach dress"},
            {"day": 8, "user_id": 0, "query_id": 12},
        ]
        with WriteAheadLog(tmp_path / "one", fsync="never") as wal:
            singles = [wal.append(**fields) for fields in batch]
        with WriteAheadLog(tmp_path / "many", fsync="never") as wal:
            assert wal.append_many(batch) == singles

        def log_bytes(name):
            return b"".join(
                p.read_bytes()
                for p in sorted((tmp_path / name).glob("wal-*.jsonl"))
            )

        assert log_bytes("one") == log_bytes("many")

    def test_sequence_numbers_are_strictly_monotonic(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never")
        events = _fill(wal, 20)
        assert [e.seq for e in events] == list(range(1, 21))

    def test_sequencing_resumes_across_reopen(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never")
        _fill(wal, 5)
        wal.close()
        wal2 = WriteAheadLog(tmp_path, fsync="never")
        assert wal2.next_seq == 6
        assert wal2.append(day=8, user_id=0, query_id=0).seq == 6

    def test_replay_after_seq_filters(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never")
        _fill(wal, 10)
        assert [e.seq for e in wal.replay(after_seq=7)] == [8, 9, 10]

    def test_segments_roll_by_event_count(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_max_events=4, fsync="never")
        _fill(wal, 10)
        assert len(wal.segments()) == 3
        assert wal.event_count() == 10

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path, fsync="sometimes")


class TestCrashRecovery:
    def test_torn_tail_is_truncated_and_writes_continue(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never")
        _fill(wal, 8)
        wal.close()
        # Simulate a crash mid-append: half a record, no newline.
        segment = sorted(tmp_path.glob("wal-*.jsonl"))[-1]
        with open(segment, "a") as fh:
            fh.write('{"crc": 123, "event": {"seq": 9, "da')
        reopened = WriteAheadLog(tmp_path, fsync="never")
        assert reopened.event_count() == 8
        assert reopened.next_seq == 9  # the torn event never happened
        reopened.append(day=8, user_id=0, query_id=0)
        assert reopened.event_count() == 9

    def test_bad_checksum_in_closed_segment_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_max_events=3, fsync="never")
        _fill(wal, 7)  # three segments; first two are closed
        wal.close()
        first = sorted(tmp_path.glob("wal-*.jsonl"))[0]
        lines = first.read_text().splitlines()
        record = json.loads(lines[0])
        record["event"]["clicked"] = [999]  # mutate without fixing crc
        lines[0] = json.dumps(record)
        first.write_text("\n".join(lines) + "\n")
        with pytest.raises(WalCorruption):
            WriteAheadLog(tmp_path, fsync="never")

    def test_mid_segment_garbage_is_not_a_torn_tail(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never")
        _fill(wal, 4)
        wal.close()
        segment = sorted(tmp_path.glob("wal-*.jsonl"))[-1]
        lines = segment.read_text().splitlines()
        lines[1] = "NOT JSON"  # followed by intact records
        segment.write_text("\n".join(lines) + "\n")
        with pytest.raises(WalCorruption):
            WriteAheadLog(tmp_path, fsync="never")


class TestCompaction:
    def test_compact_drops_only_fully_stale_closed_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_max_events=4, fsync="never")
        for day in (1, 1, 1, 1, 2, 2, 2, 2, 9, 9):
            wal.append(day=day, user_id=0, query_id=0)
        assert len(wal.segments()) == 3
        removed = wal.compact(retain_from_day=3)
        assert len(removed) == 2  # both day-1/2 segments are stale
        assert wal.event_count() == 2

    def test_active_segment_never_compacted(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never")
        _fill(wal, 3, day=1)
        assert wal.compact(retain_from_day=100) == []
        assert wal.event_count() == 3


class TestCheckpoint:
    def test_checkpoint_round_trip_and_atomicity(self, tmp_path):
        assert read_checkpoint(tmp_path) is None
        write_checkpoint(tmp_path, {"applied_seq": 17, "generation": 2})
        write_checkpoint(tmp_path, {"applied_seq": 34, "generation": 3})
        assert read_checkpoint(tmp_path) == {
            "applied_seq": 34,
            "generation": 3,
        }
        assert not (tmp_path / "CHECKPOINT.json.tmp").exists()
