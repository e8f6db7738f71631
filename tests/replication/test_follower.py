"""Follower rebuild: hypothesis-proven byte-identity with the primary."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.contract import RecommendRequest, SearchRequest
from repro.core.serving import ShoalService
from repro.replication import Feed, Follower
from repro.replication.delta import snapshot_fingerprint
from tests.replication.conftest import (
    MIN_BATCH,
    build_primary,
    stream_generation,
)


def _probe_queries(market, n=8):
    return sorted({q.text for q in market.query_log.queries})[:n]


def _answer_bytes(backend, queries):
    """The canonical byte serialisation of a backend's answer surface."""
    surface = {}
    for q in queries:
        hits = backend.search(SearchRequest(query=q, k=5)).hits
        ids = backend.recommend(RecommendRequest(query=q, k=5)).entity_ids
        surface[q] = {
            "hits": [list(h) if isinstance(h, (tuple, list)) else h.to_dict()
                     if hasattr(h, "to_dict") else h for h in hits],
            "recommend": list(ids),
        }
    return json.dumps(surface, sort_keys=True, default=repr).encode()


class TestFollowerByteIdentity:
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_single_and_sharded_followers_match_primary(
        self,
        data,
        repl_base_snapshot,
        repl_market,
        repl_config,
        repl_live_events,
    ):
        """For arbitrary micro-batch cuts, every follower — single
        service and 4-shard cluster — rebuilds generations with the
        primary's exact fingerprints and serves byte-identical answers."""
        first = data.draw(
            st.integers(MIN_BATCH, 60), label="first boundary"
        )
        second = data.draw(
            st.integers(first + MIN_BATCH, first + 60),
            label="second boundary",
        )
        root = Path(tempfile.mkdtemp(prefix="repl-hyp-"))
        pipe, updater, shipper = build_primary(
            root, repl_base_snapshot, repl_market, repl_config
        )
        generations = [
            stream_generation(pipe, updater, repl_live_events[:first]),
            stream_generation(
                pipe, updater, repl_live_events[first:second]
            ),
        ]
        probes = _probe_queries(repl_market)
        primary = ShoalService(
            generations[-1].model,
            entity_categories=generations[-1].entity_categories,
        )

        class _PrimaryView:
            def search(self, request):
                return type(
                    "R", (), {"hits": primary.search_topics(request.query, request.k)}
                )()

            def recommend(self, request):
                return type(
                    "R",
                    (),
                    {
                        "entity_ids": primary.recommend_entities_for_query(
                            request.query, request.k
                        )
                    },
                )()

        want = _answer_bytes(_PrimaryView(), probes)

        for n_shards in (1, 4):
            follower = Follower(
                root / "feed",
                root / f"work-{n_shards}",
                follower_id=f"f{n_shards}",
                n_shards=n_shards,
            )
            backend = follower.bootstrap()
            follower.catch_up(timeout_s=120.0)
            for generation in generations:
                assert follower.fingerprint_of(
                    generation.number
                ) == snapshot_fingerprint(generation.snapshot_dir), (
                    f"{n_shards}-shard follower diverged at generation "
                    f"{generation.number} (cuts {first}/{second})"
                )
            # swap the follower onto the last generation and compare
            # the full answer surface byte for byte
            Feed(root / "feed").write_epoch(
                {
                    "epoch": follower.epoch + 1,
                    "generation": generations[-1].number,
                    "fingerprint": follower.fingerprint_of(
                        generations[-1].number
                    ),
                }
            )
            follower.run_once()
            assert follower.serving_generation == generations[-1].number
            assert _answer_bytes(backend, probes) == want
            backend.close()


class TestFollowerOperational:
    def test_lag_metrics_track_the_feed(self, feed_copy, tmp_path):
        follower = Follower(feed_copy, tmp_path / "work", follower_id="lag")
        follower.bootstrap()
        # after one sync the feed head is known but nothing is built yet
        follower._sync_feed()
        stats = follower.stats()
        assert stats["seqs_behind"] > 0
        assert stats["generations_behind"] == 2
        assert stats["segments_behind"] == 0  # sync loaded every segment
        follower.catch_up(timeout_s=120.0)
        stats = follower.stats()
        assert stats["segments_behind"] == 0
        assert stats["generations_behind"] == 0
        assert stats["seqs_behind"] == 0
        assert stats["built_generation"] == 2
        assert stats["healthy"] and not stats["divergent"]

    def test_follower_reports_published_to_feed(self, feed_copy, tmp_path):
        follower = Follower(feed_copy, tmp_path / "work", follower_id="rep")
        follower.bootstrap()
        follower.catch_up(timeout_s=120.0)
        reports = Feed(feed_copy).read_follower_reports()
        assert "rep" in reports
        report = reports["rep"]
        assert report["built_generation"] == 2
        assert set(report["fingerprints"]) == {"1", "2"}

    def test_corrupted_shipped_segment_detected(self, feed_copy, tmp_path):
        feed = Feed(feed_copy)
        name = feed.read_segment_index()[0]["name"]
        with open(feed.segments_dir / name, "ab") as fh:
            fh.write(b'{"crc": 0, "event": {}}\n')
        follower = Follower(feed_copy, tmp_path / "work", follower_id="bad")
        follower.bootstrap()
        follower.run_once()
        stats = follower.stats()
        assert not stats["healthy"]
        assert "checksum mismatch" in stats["last_error"]

    def test_mid_stream_join_still_converges(self, feed_copy, tmp_path):
        """A follower that has seen nothing still rebuilds every
        generation in order from the retained feed (bootstrap replay)."""
        follower = Follower(feed_copy, tmp_path / "work", follower_id="late")
        follower.bootstrap()
        built = follower.catch_up(timeout_s=120.0)
        assert built == 2
        index = Feed(feed_copy).read_generation_index()
        for entry in index:
            assert follower.fingerprint_of(int(entry["number"])) == (
                entry["fingerprint"]
            )


class TestFollowerBackendUri:
    def test_open_backend_follower_scheme(self, shipped_world):
        from repro.api import open_backend

        root, _, _ = shipped_world
        backend = open_backend(f"follower:{root / 'feed'}")
        try:
            assert backend.kind == "follower"
            stats = backend.stats()
            assert stats["replication"]["built_generation"] == 2
            hits = backend.search(SearchRequest(query="camping", k=3)).hits
            assert isinstance(hits, tuple)
        finally:
            backend.close()

    def test_open_backend_rejects_non_feed(self, tmp_path):
        from repro.api import open_backend
        from repro.api.contract import ApiError

        with pytest.raises(ApiError, match="replication feed"):
            open_backend(f"follower:{tmp_path}")
        with pytest.raises(ApiError, match="missing its replication feed"):
            open_backend("follower:")
