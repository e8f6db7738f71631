"""WAL shipping surface: closed_segments(), roll(), shipper publish."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.replication import Feed, Follower, SegmentShipper
from repro.store.persistence import snapshot_fingerprint
from repro.streaming import WriteAheadLog


def _append(wal, day: int = 0):
    return wal.append(day=day, user_id=1, query_id=0, clicked_entity_ids=(1,))


class TestWalSurface:
    def test_closed_segments_excludes_active(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="never")
        _append(wal)
        assert wal.closed_segments() == []
        wal.roll()
        _append(wal)
        closed = wal.closed_segments()
        assert [m["path"].name for m in closed] == ["wal-00000001.jsonl"]
        assert closed[0]["n_events"] == 1
        assert closed[0]["min_seq"] == closed[0]["max_seq"] == 1

    def test_roll_closes_and_returns_the_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="never")
        _append(wal)
        _append(wal)
        closed = wal.roll()
        assert closed is not None and closed.name == "wal-00000001.jsonl"
        # appended events land in the new active segment
        _append(wal)
        assert wal.closed_segments()[0]["max_seq"] == 2

    def test_roll_of_empty_active_segment_is_a_noop(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="never")
        assert wal.roll() is None
        _append(wal)
        wal.roll()
        assert wal.roll() is None  # already rolled, nothing new
        assert len(wal.closed_segments()) == 1

    def test_roll_on_closed_log_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="never")
        wal.close()
        with pytest.raises(ValueError, match="closed"):
            wal.roll()

    def test_closed_segments_survive_reopen(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="never")
        _append(wal)
        wal.roll()
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal", fsync="never")
        names = [m["path"].name for m in reopened.closed_segments()]
        assert names == ["wal-00000001.jsonl"]


class TestShipperPublish:
    def test_segments_copied_with_verified_checksums(self, shipped_world):
        root, _, _ = shipped_world
        feed = Feed(root / "feed")
        index = feed.read_segment_index()
        assert len(index) >= 2  # one per published generation
        for entry in index:
            raw = (feed.segments_dir / entry["name"]).read_bytes()
            assert hashlib.sha256(raw).hexdigest() == entry["sha256"]
            assert entry["max_seq"] >= entry["min_seq"]
        # seq coverage is contiguous from the first shipped event
        seqs = sorted((e["min_seq"], e["max_seq"]) for e in index)
        for (_, prev_max), (next_min, _) in zip(seqs, seqs[1:]):
            assert next_min == prev_max + 1

    def test_generation_index_carries_fingerprints(self, shipped_world):
        root, _, generations = shipped_world
        index = Feed(root / "feed").read_generation_index()
        assert [g["number"] for g in index] == [1, 2]
        for entry, generation in zip(index, generations):
            assert entry["applied_seq"] == generation.applied_seq
            assert entry["fingerprint"] == snapshot_fingerprint(
                generation.snapshot_dir
            )
            assert entry == {
                "number": generation.number,
                "applied_seq": generation.applied_seq,
                "last_day": generation.last_day,
                "fingerprint": entry["fingerprint"],
            }

    def test_feed_holds_only_what_a_reader_reads(self, shipped_world):
        """No model bytes are shipped past the base snapshot: followers
        rebuild every generation from the segments."""
        root, _, _ = shipped_world
        assert sorted(p.name for p in (root / "feed").iterdir()) == [
            "FEED.json",
            "GENERATIONS.json",
            "SEGMENTS.json",
            "base",
            "followers",
            "segments",
        ]

    def test_segments_cover_every_generation_boundary(self, shipped_world):
        """The publish invariant: a generation's boundary seq is always
        inside a *shipped* segment (the shipper rolls the WAL first)."""
        root, _, _ = shipped_world
        feed = Feed(root / "feed")
        max_shipped = max(
            e["max_seq"] for e in feed.read_segment_index()
        )
        for entry in feed.read_generation_index():
            assert entry["applied_seq"] <= max_shipped

    def test_refuses_reinitialised_feed(self, tmp_path, repl_base_snapshot):
        from tests.replication.conftest import FEED_MANIFEST

        wal = WriteAheadLog(tmp_path / "wal", fsync="never")
        shipper = SegmentShipper(
            wal,
            tmp_path / "feed",
            base_snapshot_dir=repl_base_snapshot,
            manifest=FEED_MANIFEST,
        )
        shipper.initialise()
        # another primary re-initialises the same directory
        Feed(tmp_path / "feed").initialise(dict(FEED_MANIFEST))
        _append(wal)

        class _Gen:
            number = 1
            applied_seq = 1
            last_day = 0
            snapshot_dir = repl_base_snapshot

        out = shipper.publish_generation(_Gen())
        assert out == {"published": False, "error": out["error"]}
        assert "re-initialised" in out["error"]
        assert shipper.stats()["errors"] == 1

    def test_initialise_clears_stale_epoch_and_reports(
        self, tmp_path, repl_base_snapshot
    ):
        from tests.replication.conftest import FEED_MANIFEST

        feed = Feed(tmp_path / "feed")
        feed.initialise({"x": 1})
        feed.write_epoch({"epoch": 9, "generation": 9})
        feed.write_follower_report("ghost", {"healthy": True})
        shipper = SegmentShipper(
            WriteAheadLog(tmp_path / "wal", fsync="never"),
            tmp_path / "feed",
            base_snapshot_dir=repl_base_snapshot,
            manifest=FEED_MANIFEST,
        )
        shipper.initialise()
        assert feed.read_epoch() is None
        assert feed.read_follower_reports() == {}

    def test_base_snapshot_copied_byte_identically(
        self, shipped_world, repl_base_snapshot
    ):
        root, _, _ = shipped_world
        feed = Feed(root / "feed")
        for src in sorted(repl_base_snapshot.iterdir()):
            assert (
                feed.base_dir / src.name
            ).read_bytes() == src.read_bytes()

    def test_manifest_is_valid_json_with_nonce(self, shipped_world):
        root, _, _ = shipped_world
        manifest = json.loads((root / "feed" / "FEED.json").read_text())
        assert manifest["format"] == "repro-replication-feed-v1"
        assert manifest["nonce"]
        # Refit knobs only: a follower starts from base/, never from a
        # regenerated world.
        assert manifest["retrain_every"] == 100
        assert "profile" not in manifest and "seed" not in manifest

    def test_base_carries_the_click_window(self, shipped_world):
        root, _, _ = shipped_world
        assert (Feed(root / "feed").base_dir / "window.npz").is_file()


class TestOldFeedsStayReadable:
    def test_follower_rebuilds_a_feed_with_delta_era_fields(
        self, feed_copy, tmp_path, shipped_world
    ):
        """A feed written before the generation index shrank to four
        keys, or before base/ carried the click window, has extra
        manifest and index fields (the world's ``profile``/``seed`` and
        ``query_log`` among them); followers read only the refit knobs
        and ``number``, ``applied_seq`` and ``fingerprint``."""
        _, _, generations = shipped_world
        feed = Feed(feed_copy)
        manifest = feed.read_manifest()
        manifest.update(
            base_last_day=8, min_batch_events=10, profile="tiny", seed=0,
            query_log={"n_days": 9, "events_per_day": 300},
        )
        (feed_copy / "FEED.json").write_text(json.dumps(manifest))
        feed.write_generation_index([
            dict(entry, kind="delta", file=f"gen-{entry['number']:05d}.delta",
                 bytes=1, full_bytes=2)
            for entry in feed.read_generation_index()
        ])
        follower = Follower(feed_copy, tmp_path / "work", follower_id="old")
        follower.bootstrap()
        assert follower.catch_up(timeout_s=120.0) == len(generations)
        for generation in generations:
            assert follower.fingerprint_of(
                generation.number
            ) == snapshot_fingerprint(generation.snapshot_dir)
        assert not follower.stats()["divergent"]
