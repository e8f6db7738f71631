"""Epoch-coordinated swaps: quorum, refusal, zero failed reads."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api.contract import SearchRequest
from repro.replication import (
    EpochCoordinator,
    Feed,
    Follower,
    coordinator_loop,
)


def _fingerprints(feed_dir):
    return {
        int(e["number"]): e["fingerprint"]
        for e in Feed(feed_dir).read_generation_index()
    }


def _report(fingerprints, *, healthy=True, divergent=False, ts):
    return {
        "healthy": healthy,
        "divergent": divergent,
        "fingerprints": {str(n): fp for n, fp in fingerprints.items()},
        "ts": ts,
    }


class TestCoordinatorQuorum:
    def test_waits_for_quorum_then_broadcasts_highest_generation(
        self, feed_copy
    ):
        fps = _fingerprints(feed_copy)
        feed = Feed(feed_copy)
        coordinator = EpochCoordinator(feed_copy, quorum=2)
        now = 1000.0

        feed.write_follower_report("a", _report(fps, ts=now))
        assert coordinator.tick(now=now) is None  # one vote < quorum 2
        assert coordinator.stats()["last_decision"]["votes"] == {
            "1": 1, "2": 1
        }

        feed.write_follower_report("b", _report(fps, ts=now))
        broadcast = coordinator.tick(now=now)
        assert broadcast is not None
        assert broadcast["epoch"] == 1
        assert broadcast["generation"] == 2  # highest agreed, not first
        assert broadcast["fingerprint"] == fps[2]
        assert broadcast["votes"] == 2

    def test_unhealthy_divergent_and_stale_followers_never_vote(
        self, feed_copy
    ):
        fps = _fingerprints(feed_copy)
        feed = Feed(feed_copy)
        coordinator = EpochCoordinator(
            feed_copy, quorum=1, stale_after_s=30.0
        )
        now = 1000.0
        feed.write_follower_report(
            "sick", _report(fps, healthy=False, ts=now)
        )
        feed.write_follower_report(
            "fork", _report(fps, divergent=True, ts=now)
        )
        feed.write_follower_report("dead", _report(fps, ts=now - 100.0))
        assert coordinator.tick(now=now) is None
        assert coordinator.stats()["last_decision"]["live_followers"] == 2

    def test_wrong_fingerprint_does_not_count(self, feed_copy):
        fps = _fingerprints(feed_copy)
        feed = Feed(feed_copy)
        coordinator = EpochCoordinator(feed_copy, quorum=1)
        now = 1000.0
        feed.write_follower_report(
            "evil", _report({n: "0" * 64 for n in fps}, ts=now)
        )
        assert coordinator.tick(now=now) is None

    def test_epoch_floor_prevents_rebroadcast(self, feed_copy):
        fps = _fingerprints(feed_copy)
        feed = Feed(feed_copy)
        coordinator = EpochCoordinator(feed_copy, quorum=1)
        now = 1000.0
        feed.write_follower_report("a", _report(fps, ts=now))
        assert coordinator.tick(now=now) is not None
        # nothing newer than the broadcast generation exists -> silence
        assert coordinator.tick(now=now + 1) is None
        assert coordinator.current_epoch()["epoch"] == 1

    def test_malformed_reports_do_not_vote_or_stop_the_tick(self, feed_copy):
        """Reports come from other processes: one whose fingerprints are
        not an object keyed by generation numbers, or whose ts is not a
        finite number (it could never go stale), is skipped and counted,
        and the healthy follower's vote still carries."""
        fps = _fingerprints(feed_copy)
        feed = Feed(feed_copy)
        coordinator = EpochCoordinator(feed_copy, quorum=1)
        now = 1000.0
        feed.write_follower_report("a-list", {
            "healthy": True, "fingerprints": ["oops"], "ts": now,
        })
        feed.write_follower_report("b-words", {
            "healthy": True, "fingerprints": {"one": "abc"}, "ts": now,
        })
        feed.write_follower_report("c-null", {
            "healthy": True, "fingerprints": None, "ts": now,
        })
        no_ts = _report(fps, ts=now)
        del no_ts["ts"]
        feed.write_follower_report("d-no-ts", no_ts)
        # a foreign writer's NaN (the feed's own writer refuses one)
        (feed.followers_dir / "e-nan-ts.json").write_text(
            json.dumps(_report(fps, ts=float("nan")))
        )
        feed.write_follower_report("good", _report(fps, ts=now))
        broadcast = coordinator.tick(now=now)
        assert broadcast is not None
        assert broadcast["generation"] == 2
        assert broadcast["votes"] == 1
        decision = coordinator.stats()["last_decision"]
        assert decision["malformed"] == 5
        assert decision["live_followers"] == 4

    def test_quorum_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="quorum"):
            EpochCoordinator(tmp_path, quorum=0)


class TestCoordinatorLoop:
    def test_a_malformed_report_does_not_stop_the_broadcast(
        self, feed_copy
    ):
        """The embedded coordinator thread keeps ticking past a bad
        report, so the healthy, matching follower still gets its epoch."""
        fps = _fingerprints(feed_copy)
        feed = Feed(feed_copy)
        feed.write_follower_report("bad", {
            "healthy": True, "fingerprints": {"one": "abc"},
            "ts": time.time(),
        })
        feed.write_follower_report("good", _report(fps, ts=time.time()))
        stop = threading.Event()
        thread = threading.Thread(
            target=coordinator_loop,
            args=(EpochCoordinator(feed_copy, quorum=1),),
            kwargs={"stop": stop, "interval_s": 0.01},
            daemon=True,
        )
        thread.start()
        try:
            deadline = time.monotonic() + 10.0
            while feed.read_epoch() is None and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.05)  # a few more ticks over the same reports
            assert thread.is_alive()
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        epoch = feed.read_epoch()
        assert epoch is not None
        assert epoch["epoch"] == 1
        assert epoch["generation"] == 2
        assert epoch["fingerprint"] == fps[2]


class TestEpochSwap:
    def test_coordinated_swap_end_to_end(self, feed_copy):
        follower = Follower(feed_copy, follower_id="swapper")
        follower.bootstrap()
        follower.catch_up(timeout_s=120.0)
        assert follower.serving_generation == 0  # staged, never self-swaps

        coordinator = EpochCoordinator(feed_copy, quorum=1)
        broadcast = coordinator.tick()
        assert broadcast is not None and broadcast["generation"] == 2
        out = follower.run_once()
        assert out["swapped"]
        stats = follower.stats()
        assert stats["epoch"] == 1
        assert stats["serving_generation"] == 2
        assert stats["epoch_swaps"] == 1 and stats["swap_failures"] == 0

    def test_refused_generation_is_recorded_then_recovers(
        self, feed_copy, monkeypatch
    ):
        """An index build that blows up refuses the generation before
        it is published: the follower keeps serving its previous
        generation, unhealthy but alive, records the epoch so it does
        not retry the same broadcast, and a later epoch naming the same
        generation succeeds."""
        from repro.core import serving as serving_module

        follower = Follower(feed_copy, follower_id="victim")
        backend = follower.bootstrap()
        follower.catch_up(timeout_s=120.0)
        fps = _fingerprints(feed_copy)

        real = serving_module._ServiceState

        def sabotaged(*args, **kwargs):
            raise RuntimeError("sabotaged index build")

        monkeypatch.setattr(serving_module, "_ServiceState", sabotaged)
        Feed(feed_copy).write_epoch(
            {"epoch": 1, "generation": 2, "fingerprint": fps[2]}
        )
        follower.run_once()
        follower.run_once()  # the same broadcast is not retried
        stats = follower.stats()
        assert stats["swap_failures"] == 1
        assert not stats["healthy"]
        assert stats["serving_generation"] == 0  # never left it
        assert stats["epoch"] == 1  # bad broadcast recorded, not retried
        assert "sabotaged index build" in stats["last_error"]
        assert follower.switch.current.number == 0
        # reads keep flowing off the generation it never left
        assert backend.search(SearchRequest(query="x", k=3)) is not None

        monkeypatch.setattr(serving_module, "_ServiceState", real)
        Feed(feed_copy).write_epoch(
            {"epoch": 2, "generation": 2, "fingerprint": fps[2]}
        )
        follower.run_once()
        stats = follower.stats()
        assert stats["healthy"]
        assert stats["serving_generation"] == 2
        assert stats["epoch"] == 2

    def test_divergent_fingerprint_refuses_the_swap(
        self, feed_copy
    ):
        follower = Follower(feed_copy, follower_id="fork")
        follower.bootstrap()
        follower.catch_up(timeout_s=120.0)
        Feed(feed_copy).write_epoch(
            {"epoch": 1, "generation": 2, "fingerprint": "0" * 64}
        )
        out = follower.run_once()
        assert not out["swapped"]
        stats = follower.stats()
        assert stats["divergent"]
        assert stats["serving_generation"] == 0
        assert stats["epoch"] == 0  # refusal is not acceptance
        assert "refusing epoch" in stats["last_error"]


class TestZeroFailedReadsDuringSwap:
    def test_readers_never_fail_across_a_coordinated_swap(
        self, feed_copy, repl_market
    ):
        """The acceptance gate: reader threads hammer the follower
        while the coordinator broadcasts and the follower swaps; every
        read must return a well-formed response."""
        follower = Follower(feed_copy, follower_id="hot")
        backend = follower.bootstrap()
        follower.catch_up(timeout_s=120.0)

        queries = sorted({q.text for q in repl_market.query_log.queries})[:6]
        stop = threading.Event()
        errors: list = []
        reads = [0] * 4

        def reader(slot: int) -> None:
            i = 0
            while not stop.is_set():
                q = queries[i % len(queries)]
                i += 1
                try:
                    response = backend.search(SearchRequest(query=q, k=5))
                    if response is None or response.hits is None:
                        raise AssertionError(f"torn read for {q!r}")
                except Exception as exc:  # noqa: BLE001 - the gate
                    errors.append(exc)
                    return
                reads[slot] += 1

        threads = [
            threading.Thread(target=reader, args=(slot,), daemon=True)
            for slot in range(4)
        ]
        for t in threads:
            t.start()
        try:
            time.sleep(0.1)
            coordinator = EpochCoordinator(feed_copy, quorum=1)
            assert coordinator.tick() is not None
            deadline = time.monotonic() + 30.0
            while (
                follower.serving_generation != 2
                and time.monotonic() < deadline
            ):
                follower.run_once()
                time.sleep(0.01)
            time.sleep(0.1)  # keep reading after the flip too
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10.0)

        assert not errors, f"failed reads during swap: {errors[:3]}"
        assert follower.serving_generation == 2
        assert sum(reads) > 0 and all(n > 0 for n in reads)
