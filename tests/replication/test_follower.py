"""Follower load: hypothesis-proven byte-identity with the primary."""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ServiceBackend
from repro.api.contract import RecommendRequest, SearchRequest
from repro.core.serving import ShoalService
from repro.replication import EpochCoordinator, Feed, Follower
from repro.replication import follower as follower_module
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
    def test_follower_matches_primary(
        self,
        data,
        repl_base_snapshot,
        repl_market,
        repl_live_events,
    ):
        """For arbitrary micro-batch cuts, a whole-model follower
        verifies every shipped generation against the primary's index
        and serves answers byte-identical to the primary's in-memory
        generation."""
        first = data.draw(
            st.integers(MIN_BATCH, 60), label="first boundary"
        )
        second = data.draw(
            st.integers(first + MIN_BATCH, first + 60),
            label="second boundary",
        )
        root = Path(tempfile.mkdtemp(prefix="repl-hyp-"))
        pipe, updater, _, _ = build_primary(root, repl_base_snapshot)
        generations = [
            stream_generation(pipe, updater, repl_live_events[:first]),
            stream_generation(
                pipe, updater, repl_live_events[first:second]
            ),
        ]
        probes = _probe_queries(repl_market)
        primary = ShoalService(generations[-1].serving)

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

        follower = Follower(root / "feed", follower_id="f")
        backend = follower.bootstrap()
        follower.catch_up(timeout_s=120.0)
        index = Feed(root / "feed").read_generation_index()
        assert [e["number"] for e in index] == [
            0, *(g.number for g in generations)
        ]
        for entry in index:
            assert follower.fingerprint_of(entry["number"]) == (
                entry["fingerprint"]
            ), (
                f"follower diverged at generation {entry['number']} "
                f"(cuts {first}/{second})"
            )
        # swap the follower onto the last generation and compare the
        # full answer surface byte for byte
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


class TestShipsOnlyWhatThePrimaryPublished:
    def test_a_gated_generation_never_reaches_followers(
        self, tmp_path, repl_base_snapshot, repl_market, repl_live_events
    ):
        """A generation the drift gate holds back is not shipped: the
        feed indexes only generations the primary's readers saw, so a
        follower keeps serving what the primary serves."""

        class AlwaysSkip:
            def should_skip(self, prev, new):
                return True

            def stats(self):
                return {}

        pipe, updater, shipper, switch = build_primary(
            tmp_path, repl_base_snapshot, drift_gate=AlwaysSkip()
        )
        for events in (repl_live_events[:40], repl_live_events[40:80]):
            stream_generation(pipe, updater, events)
        assert switch.current.number == 0  # both generations held back
        feed = Feed(tmp_path / "feed")
        assert [e["number"] for e in feed.read_generation_index()] == [0]
        assert shipper.stats()["generations_published"] == 0

        follower = Follower(tmp_path / "feed", follower_id="f")
        backend = follower.bootstrap()
        follower.catch_up(timeout_s=120.0)
        EpochCoordinator(tmp_path / "feed", quorum=1).tick()
        follower.run_once()
        assert follower.serving_generation == switch.current.number
        probes = _probe_queries(repl_market)
        primary = ServiceBackend(ShoalService(switch.current.serving))
        assert _answer_bytes(backend, probes) == _answer_bytes(primary, probes)
        backend.close()


class TestFollowerOperational:
    def test_lag_metrics_track_the_feed(self, feed_copy):
        follower = Follower(feed_copy, follower_id="lag")
        follower.bootstrap()
        # bootstrap verifies and serves generation 0 only
        stats = follower.stats()
        assert stats["verified_generation"] == 0
        assert stats["serving_generation"] == 0
        follower.catch_up(timeout_s=120.0)
        stats = follower.stats()
        newest = Feed(feed_copy).read_generation_index()[-1]
        assert stats["verified_generation"] == 2
        assert stats["applied_seq"] == newest["applied_seq"]
        assert stats["seqs_behind"] == 0
        assert stats["healthy"] and not stats["divergent"]

    def test_follower_reports_published_to_feed(self, feed_copy):
        follower = Follower(feed_copy, follower_id="rep")
        follower.bootstrap()
        follower.catch_up(timeout_s=120.0)
        reports = Feed(feed_copy).read_follower_reports()
        assert "rep" in reports
        report = reports["rep"]
        assert report["verified_generation"] == 2
        assert set(report["fingerprints"]) == {"0", "1", "2"}

    def test_corrupted_generation_is_refused(self, feed_copy):
        """One flipped byte in a shipped generation is a checksum
        refusal: the follower reports itself divergent, never reports
        that generation's fingerprint, keeps serving what it served,
        and no coordinator broadcasts on its behalf."""
        feed = Feed(feed_copy)
        taxonomy = feed.generation_dir(2) / "taxonomy.json"
        raw = bytearray(taxonomy.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        taxonomy.write_bytes(bytes(raw))

        follower = Follower(feed_copy, follower_id="bad")
        backend = follower.bootstrap()
        follower.catch_up(timeout_s=120.0)
        stats = follower.stats()
        assert stats["divergent"]
        assert "checksum mismatch" in stats["last_error"]
        assert stats["verified_generation"] == 1
        assert stats["seqs_behind"] > 0
        assert follower.fingerprint_of(2) is None
        fingerprints = feed.read_follower_reports()["bad"]["fingerprints"]
        assert set(fingerprints) == {"0", "1"}
        assert EpochCoordinator(feed_copy, quorum=1).tick() is None

        # even a broadcast naming it never gets it served
        feed.write_epoch({
            "epoch": 1,
            "generation": 2,
            "fingerprint": feed.read_generation_index()[2]["fingerprint"],
        })
        follower.run_once()
        assert follower.serving_generation == 0
        assert backend.search(SearchRequest(query="x", k=3)) is not None

    def test_unloadable_generation_is_a_failed_swap(self, feed_copy):
        """The fingerprint leaves out MANIFEST.json, so a manifest broken
        after verification fails the load: the follower keeps serving,
        reports unhealthy, and does not retry that epoch."""
        feed = Feed(feed_copy)
        follower = Follower(feed_copy, follower_id="torn")
        backend = follower.bootstrap()
        follower.catch_up(timeout_s=120.0)
        assert follower.fingerprint_of(2) is not None
        (feed.generation_dir(2) / "MANIFEST.json").write_text("{")
        feed.write_epoch({
            "epoch": 1,
            "generation": 2,
            "fingerprint": follower.fingerprint_of(2),
        })
        assert not follower.run_once()["swapped"]
        stats = follower.stats()
        assert stats["swap_failures"] == 1 and not stats["healthy"]
        assert stats["serving_generation"] == 0 and stats["epoch"] == 1
        assert "epoch 1 swap failed" in stats["last_error"]
        assert backend.search(SearchRequest(query="x", k=3)) is not None

    def test_generation_changed_after_verification_is_not_served(
        self, feed_copy
    ):
        """The load re-checks the fingerprint: bytes that changed between
        verification and the epoch fail the swap instead of serving."""
        feed = Feed(feed_copy)
        follower = Follower(feed_copy, follower_id="changed")
        backend = follower.bootstrap()
        follower.catch_up(timeout_s=120.0)
        taxonomy = feed.generation_dir(2) / "taxonomy.json"
        raw = bytearray(taxonomy.read_bytes())
        # a nonzero digit to another one: still valid JSON, so it loads
        at = next(
            i for i in range(len(raw) // 2, len(raw)) if raw[i] in b"123456789"
        )
        raw[at] = ord("1") + (raw[at] - ord("1") + 1) % 9
        taxonomy.write_bytes(bytes(raw))
        feed.write_epoch({
            "epoch": 1,
            "generation": 2,
            "fingerprint": follower.fingerprint_of(2),
        })
        assert not follower.run_once()["swapped"]
        stats = follower.stats()
        assert stats["swap_failures"] == 1 and not stats["healthy"]
        assert stats["serving_generation"] == 0
        assert "changed since it was verified" in stats["last_error"]
        assert backend.search(SearchRequest(query="x", k=3)) is not None

    @staticmethod
    def _unlist_sidecar(directory):
        manifest_path = directory / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        assert (directory / "entity_categories.json").is_file()
        manifest["artifacts"].remove("entity_categories.json")
        manifest_path.write_text(json.dumps(manifest))

    def test_manifest_unlisting_the_sidecar_is_never_served(self, feed_copy):
        """A manifest that still parses but no longer lists the category
        sidecar would make load_serving derive the map, while the
        fingerprint (which leaves the manifest out) still matches. Edited
        after verification, the load re-check fails the swap; edited
        before it, the generation is refused as a checksum mismatch."""
        feed = Feed(feed_copy)
        follower = Follower(feed_copy, follower_id="unlisted")
        backend = follower.bootstrap()
        follower.catch_up(timeout_s=120.0)
        self._unlist_sidecar(feed.generation_dir(2))
        feed.write_epoch({
            "epoch": 1,
            "generation": 2,
            "fingerprint": follower.fingerprint_of(2),
        })
        assert not follower.run_once()["swapped"]
        stats = follower.stats()
        assert stats["swap_failures"] == 1 and not stats["healthy"]
        assert stats["serving_generation"] == 0
        assert "does not list" in stats["last_error"]
        assert backend.search(SearchRequest(query="x", k=3)) is not None

        late = Follower(feed_copy, follower_id="late")
        late.bootstrap()
        late.catch_up(timeout_s=120.0)
        stats = late.stats()
        assert stats["divergent"] and stats["serving_generation"] == 0
        assert "does not list" in stats["last_error"]
        assert late.fingerprint_of(2) is None

    def test_generation_indexed_before_its_files_arrive(
        self, feed_copy, tmp_path
    ):
        """A sync that ships GENERATIONS.json before the generation's
        directory (or the manifest before the files it lists) leaves
        the follower waiting, not divergent: it reports unhealthy, does
        not report that fingerprint, and verifies the generation on a
        later poll once the files are there."""
        feed = Feed(feed_copy)
        gen2 = feed.generation_dir(2)
        held = tmp_path / "held-gen-2"
        shutil.move(str(gen2), str(held))

        follower = Follower(feed_copy, follower_id="early")
        follower.bootstrap()
        follower.catch_up(timeout_s=120.0)

        def assert_waiting():
            stats = follower.stats()
            assert not stats["healthy"] and not stats["divergent"]
            assert "not yet complete" in stats["last_error"]
            assert stats["verified_generation"] == 1
            assert follower.fingerprint_of(2) is None
            report = feed.read_follower_reports()["early"]
            assert set(report["fingerprints"]) == {"0", "1"}
            assert not report["healthy"]

        assert_waiting()
        gen2.mkdir()
        shutil.copy2(held / "MANIFEST.json", gen2 / "MANIFEST.json")
        assert follower.run_once()["verified"] == 0
        assert_waiting()

        for path in held.iterdir():
            shutil.copy2(path, gen2 / path.name)
        assert follower.run_once()["verified"] == 1
        stats = follower.stats()
        assert stats["healthy"] and not stats["divergent"]
        assert "last_error" not in stats
        assert follower.fingerprint_of(2) == (
            feed.read_generation_index()[2]["fingerprint"]
        )
        report = feed.read_follower_reports()["early"]
        assert set(report["fingerprints"]) == {"0", "1", "2"}

    def test_cold_follower_checks_only_what_it_may_serve(
        self, feed_copy, monkeypatch
    ):
        """A cold follower starts checking at the newest VERIFIED_DEPTH
        generations, or earlier at the one EPOCH.json names. A corrupt
        generation it skips cannot make it divergent."""
        monkeypatch.setattr(follower_module, "VERIFIED_DEPTH", 1)
        feed = Feed(feed_copy)
        taxonomy = feed.generation_dir(1) / "taxonomy.json"
        raw = bytearray(taxonomy.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        taxonomy.write_bytes(bytes(raw))

        skipping = Follower(feed_copy, follower_id="skip")
        skipping.bootstrap()
        assert skipping.catch_up(timeout_s=120.0) == 1
        assert skipping.fingerprint_of(2) is not None
        assert not skipping.stats()["divergent"]

        index = feed.read_generation_index()
        feed.write_epoch({
            "epoch": 1,
            "generation": 1,
            "fingerprint": index[1]["fingerprint"],
        })
        from_epoch = Follower(feed_copy, follower_id="from-epoch")
        from_epoch.bootstrap()
        assert from_epoch.catch_up(timeout_s=120.0) == 1
        stats = from_epoch.stats()
        assert stats["divergent"] and "checksum mismatch" in stats["last_error"]
        assert from_epoch.fingerprint_of(1) is None
        assert from_epoch.fingerprint_of(2) is not None

    def test_mid_stream_join_still_converges(self, feed_copy):
        """A follower that has seen nothing still verifies every
        generation the feed retains, in order."""
        follower = Follower(feed_copy, follower_id="late")
        follower.bootstrap()
        verified = follower.catch_up(timeout_s=120.0)
        assert verified == 2
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
            assert stats["replication"]["verified_generation"] == 2
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
