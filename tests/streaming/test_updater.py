"""StreamingUpdater: micro-batches, generations, crash recovery.

The crash tests simulate "kill -9 the updater" by abandoning a
half-applied process state and standing up a brand-new updater over the
same WAL directory — exactly what a process restart does. The
invariant: the rebuilt window contains every admitted event exactly
once (idempotent replay via WAL sequence numbers), no matter where the
kill landed.
"""

from __future__ import annotations

from repro.core.incremental import IncrementalShoal
from repro.obs.tracer import Tracer, set_default_tracer
from repro.streaming import (
    GenerationSwitch,
    IngestPipe,
    StreamingUpdater,
    WriteAheadLog,
)
from repro.streaming.wal import read_checkpoint

from tests.streaming.conftest import (
    BASE_LAST_DAY,
    event_payload,
    make_base_inc,
    serving_tier,
)


#: What a fold with warm embeddings runs, in order.
FOLD_STAGES = (
    "bipartite", "entity_graph", "clustering", "taxonomy",
    "descriptions", "correlation",
)


def make_updater(tmp_path, inc, **kwargs):
    wal = WriteAheadLog(tmp_path / "wal", fsync="never")
    pipe = IngestPipe(wal, max_queue=10_000)
    updater = StreamingUpdater(inc, pipe, **kwargs)
    return wal, pipe, updater


class TestMicroBatches:
    def test_generation_covers_the_drained_batch(
        self, tmp_path, stream_market, stream_inputs, live_events, base_inc
    ):
        _, pipe, updater = make_updater(tmp_path, base_inc)
        updater.seed_log(stream_market.query_log.window(0, BASE_LAST_DAY))
        for e in live_events[:40]:
            pipe.submit(event_payload(e))
        generation = updater.run_once(timeout_s=0.0)
        assert generation is not None
        assert generation.number == 1
        assert generation.applied_seq == 40
        assert generation.last_day == live_events[39].day
        assert updater.stats().events_applied == 40

    def test_min_batch_events_defers_tiny_batches(
        self, tmp_path, stream_market, live_events, base_inc
    ):
        _, pipe, updater = make_updater(
            tmp_path, base_inc, min_batch_events=10
        )
        updater.seed_log(stream_market.query_log.window(0, BASE_LAST_DAY))
        for e in live_events[:4]:
            pipe.submit(event_payload(e))
        assert updater.run_once(timeout_s=0.0) is None  # applied, deferred
        assert updater.stats().events_applied == 4
        for e in live_events[4:12]:
            pipe.submit(event_payload(e))
        generation = updater.run_once(timeout_s=0.0)
        assert generation is not None and generation.applied_seq == 12

    def test_generations_persist_as_versioned_snapshots(
        self, tmp_path, stream_market, live_events, base_inc
    ):
        from repro.store.persistence import read_manifest

        _, pipe, updater = make_updater(
            tmp_path, base_inc, generations_dir=tmp_path / "gens"
        )
        updater.seed_log(stream_market.query_log.window(0, BASE_LAST_DAY))
        for e in live_events[:25]:
            pipe.submit(event_payload(e))
        generation = updater.run_once(timeout_s=0.0)
        assert generation.snapshot_dir is not None
        meta = read_manifest(generation.snapshot_dir)["metadata"]
        assert meta["generation"] == 1
        assert meta["applied_seq"] == 25

    def test_generation_manifest_says_where_the_fold_went(
        self, tmp_path, stream_market, live_events, base_inc
    ):
        from repro.store.persistence import read_manifest

        _, pipe, updater = make_updater(
            tmp_path, base_inc, generations_dir=tmp_path / "gens"
        )
        updater.seed_log(stream_market.query_log.window(0, BASE_LAST_DAY))
        for e in live_events[:25]:
            pipe.submit(event_payload(e))
        generation = updater.run_once(timeout_s=0.0)
        stages = read_manifest(generation.snapshot_dir)["stage_seconds"]
        # Warm embeddings: the fold ran every stage but word2vec.
        assert sorted(stages) == sorted(FOLD_STAGES)
        assert all(seconds >= 0.0 for seconds in stages.values())

    def test_fit_stages_nest_under_the_fold_trace(
        self, tmp_path, stream_market, live_events, base_inc
    ):
        tracer = Tracer()
        set_default_tracer(tracer)
        try:
            _, pipe, updater = make_updater(tmp_path, base_inc)
            updater.seed_log(stream_market.query_log.window(0, BASE_LAST_DAY))
            for e in live_events[:25]:
                pipe.submit(event_payload(e))
            assert updater.run_once(timeout_s=0.0) is not None
        finally:
            set_default_tracer(None)
        trace = tracer.latest()
        assert trace["endpoint"] == "updater.batch_fold"
        (fold,) = [s for s in trace["spans"] if s["parent_id"] is None]
        children = {
            s["name"] for s in trace["spans"] if s["parent_id"] == fold["span_id"]
        }
        assert children == {f"fit.{stage}" for stage in FOLD_STAGES}

    def test_checkpoint_written_after_each_generation(
        self, tmp_path, stream_market, live_events, base_inc
    ):
        _, pipe, updater = make_updater(tmp_path, base_inc)
        updater.seed_log(stream_market.query_log.window(0, BASE_LAST_DAY))
        for e in live_events[:15]:
            pipe.submit(event_payload(e))
        updater.run_once(timeout_s=0.0)
        checkpoint = read_checkpoint(tmp_path / "wal")
        assert checkpoint["applied_seq"] == 15
        assert checkpoint["generation"] == 1

    def test_live_query_text_registration(
        self, tmp_path, stream_market, base_inc
    ):
        """An unseen query string arrives with its first event and is
        registered for description scoring in the next window."""
        _, pipe, updater = make_updater(tmp_path, base_inc)
        updater.seed_log(stream_market.query_log.window(0, BASE_LAST_DAY))
        fresh_id = max(
            q.query_id for q in stream_market.query_log.queries
        ) + 1
        pipe.submit(
            {
                "day": BASE_LAST_DAY + 1,
                "user_id": 0,
                "query_id": fresh_id,
                "clicked": [0, 1],
                "query_text": "brand new trend",
            }
        )
        generation = updater.run_once(timeout_s=0.0)
        assert generation is not None
        assert updater.store.n_queries() == len(
            stream_market.query_log.queries
        ) + 1


class TestPoisonEvents:
    def test_unregistered_query_without_text_is_skipped_not_fatal(
        self, tmp_path, stream_market, live_events, base_inc
    ):
        """A WAL-durable event whose query_id nobody knows (and that
        carries no query_text) must not kill its batch — and must not
        brick recovery, which replays the same WAL forever."""
        _, pipe, updater = make_updater(tmp_path, base_inc)
        updater.seed_log(stream_market.query_log.window(0, BASE_LAST_DAY))
        unknown = max(
            q.query_id for q in stream_market.query_log.queries
        ) + 500
        pipe.submit(
            {"day": BASE_LAST_DAY + 1, "query_id": unknown, "clicked": [1]}
        )
        for e in live_events[:10]:
            pipe.submit(event_payload(e))
        generation = updater.run_once(timeout_s=0.0)
        assert generation is not None  # the batch survived the poison
        stats = updater.stats()
        assert stats.events_skipped == 1
        assert stats.events_applied == 10  # everything after it applied
        assert stats.applied_seq == 11
        assert "not registered" in updater.last_error

    def test_far_future_day_cannot_purge_the_window(
        self, tmp_path, stream_market, live_events, base_inc
    ):
        """One event stamped day 999999 must not evict every retained
        day segment (QueryLogStore retention keys off the newest day)."""
        _, pipe, updater = make_updater(tmp_path, base_inc)
        updater.seed_log(stream_market.query_log.window(0, BASE_LAST_DAY))
        before_days = updater.store.days()
        real = live_events[0]
        pipe.submit({**event_payload(real), "day": 999_999})
        for e in live_events[:10]:
            pipe.submit(event_payload(e))
        generation = updater.run_once(timeout_s=0.0)
        assert generation is not None
        stats = updater.stats()
        assert stats.events_skipped == 1
        assert stats.events_applied == 10
        # The window still holds the base days (plus the new live day).
        assert set(before_days) <= set(updater.store.days()) | {0}
        assert "purge" in updater.last_error or "jumps" in updater.last_error

    def test_poisoned_wal_replays_cleanly_after_restart(
        self, tmp_path, stream_market, stream_inputs, live_events
    ):
        """The recovery path hits the same poison records on every
        restart — they must be skipped there too, forever."""
        inc1 = make_base_inc(stream_market, stream_inputs)
        wal1, pipe1, _ = make_updater(tmp_path, inc1)
        unknown = max(
            q.query_id for q in stream_market.query_log.queries
        ) + 500
        pipe1.submit(
            {"day": BASE_LAST_DAY + 1, "query_id": unknown, "clicked": [1]}
        )
        for e in live_events[:5]:
            pipe1.submit(event_payload(e))
        wal1.close()

        inc2 = make_base_inc(stream_market, stream_inputs)
        _, _, updater2 = make_updater(tmp_path, inc2)
        updater2.seed_log(stream_market.query_log.window(0, BASE_LAST_DAY))
        assert updater2.recover() == 5  # the 5 good events, poison skipped
        assert updater2.stats().events_skipped == 1
        assert updater2.force_generation() is not None


class TestCrashRecovery:
    def test_kill_mid_batch_loses_and_doubles_nothing(
        self, tmp_path, stream_market, stream_inputs, live_events
    ):
        """Admit 60 events; 'crash' after the updater applied only 30
        and never checkpointed. The restarted updater must rebuild a
        window with exactly the 60 admitted events — none lost (they
        were WAL-durable), none double-applied (seq idempotency)."""
        def expected_window_events(n_live: int) -> int:
            """Base + live events still inside the sliding window after
            ``n_live`` live events were applied (retention drops whole
            days as newer days arrive)."""
            applied = live_events[:n_live]
            newest = max(e.day for e in applied)
            window_start = newest - 7 + 1
            in_window_base = sum(
                1
                for e in stream_market.query_log.events
                if window_start <= e.day <= BASE_LAST_DAY
            )
            in_window_live = sum(
                1 for e in applied if e.day >= window_start
            )
            return in_window_base + in_window_live

        inc1 = make_base_inc(stream_market, stream_inputs)
        wal1, pipe1, updater1 = make_updater(tmp_path, inc1)
        updater1.seed_log(stream_market.query_log.window(0, BASE_LAST_DAY))
        for e in live_events[:60]:
            pipe1.submit(event_payload(e))
        # Half a batch reaches the store, then the process dies: no
        # generation, no checkpoint, queue contents lost with the heap.
        half = pipe1.take_batch(max_events=30, max_age_s=0, timeout_s=0)
        updater1._apply_events(half)
        assert updater1.store.n_events() == expected_window_events(30)
        wal1.close()
        del updater1, pipe1, wal1

        # Process restart: fresh maintainer, fresh store, same WAL dir.
        inc2 = make_base_inc(stream_market, stream_inputs)
        wal2, pipe2, updater2 = make_updater(tmp_path, inc2)
        updater2.seed_log(stream_market.query_log.window(0, BASE_LAST_DAY))
        recovered = updater2.recover()
        assert recovered == 60  # every admitted event, exactly once
        assert updater2.store.n_events() == expected_window_events(60)
        assert updater2.stats().events_duplicate == 0
        assert updater2.applied_seq == 60

        # Replaying the same WAL again is a no-op (idempotent by seq).
        assert updater2.recover() == 0
        assert updater2.stats().events_duplicate == 60
        assert updater2.store.n_events() == expected_window_events(60)

        generation = updater2.force_generation()
        assert generation is not None and generation.applied_seq == 60

    def test_recovery_spans_segment_boundaries_and_torn_tail(
        self, tmp_path, stream_market, stream_inputs, live_events
    ):
        inc = make_base_inc(stream_market, stream_inputs)
        wal = WriteAheadLog(
            tmp_path / "wal", segment_max_events=8, fsync="never"
        )
        pipe = IngestPipe(wal)
        for e in live_events[:20]:
            pipe.submit(event_payload(e))
        wal.close()
        # Crash mid-append: torn half-record at the live tail.
        segment = sorted((tmp_path / "wal").glob("wal-*.jsonl"))[-1]
        with open(segment, "a") as fh:
            fh.write('{"crc": 1, "event": {"se')

        wal2 = WriteAheadLog(tmp_path / "wal", fsync="never")
        pipe2 = IngestPipe(wal2)
        updater = StreamingUpdater(inc, pipe2)
        updater.seed_log(stream_market.query_log.window(0, BASE_LAST_DAY))
        assert updater.recover() == 20  # exact admitted count survives


class TestBackgroundThread:
    def test_start_stop_produces_generations(
        self, tmp_path, stream_market, live_events, base_inc
    ):
        switch = GenerationSwitch().attach(serving_tier(base_inc))
        _, pipe, updater = make_updater(
            tmp_path,
            base_inc,
            switch=switch,
            batch_max_events=64,
            batch_max_age_s=0.05,
        )
        updater.seed_log(stream_market.query_log.window(0, BASE_LAST_DAY))
        updater.start()
        try:
            for e in live_events[:50]:
                pipe.submit(event_payload(e))
        finally:
            updater.stop(drain=True)
        stats = updater.stats()
        assert stats.events_applied == 50
        assert stats.generations >= 1
        assert stats.swap_failures == 0
        assert updater.last_error is None
        assert switch.current is not None


class TestDriftGate:
    """The analytics drift monitor, consulted before each rollout."""

    def _run_two_generations(
        self, tmp_path, stream_market, live_events, base_inc, gate
    ):
        switch = GenerationSwitch().attach(serving_tier(base_inc))
        _, pipe, updater = make_updater(
            tmp_path, base_inc, switch=switch, drift_gate=gate
        )
        updater.seed_log(stream_market.query_log.window(0, BASE_LAST_DAY))
        for e in live_events[:40]:
            pipe.submit(event_payload(e))
        updater.run_once(timeout_s=0.0)
        for e in live_events[40:80]:
            pipe.submit(event_payload(e))
        updater.run_once(timeout_s=0.0)
        return switch, updater

    def test_trivial_generation_is_produced_but_not_rolled_out(
        self, tmp_path, stream_market, live_events, base_inc
    ):
        class AlwaysTrivial:
            def __init__(self):
                self.consulted = []

            def should_skip(self, prev, new):
                self.consulted.append((prev.number, new.number))
                return True

            def stats(self):
                return {"assessments": len(self.consulted)}

        gate = AlwaysTrivial()
        switch, updater = self._run_two_generations(
            tmp_path, stream_market, live_events, base_inc, gate
        )
        # Generation 1 had nothing serving to compare against and rolled
        # out; generation 2 was gated and skipped.
        assert gate.consulted == [(1, 2)]
        assert switch.current.number == 1
        stats = updater.stats()
        assert stats.generations == 2  # produced and checkpointed anyway
        assert stats.rollouts_skipped == 1
        assert updater.stats_dict()["drift"] == {"assessments": 1}

    def test_gate_failure_is_advisory_rollout_proceeds(
        self, tmp_path, stream_market, live_events, base_inc
    ):
        class Broken:
            def should_skip(self, prev, new):
                raise RuntimeError("gate exploded")

            def stats(self):
                return {}

        switch, updater = self._run_two_generations(
            tmp_path, stream_market, live_events, base_inc, Broken()
        )
        assert switch.current.number == 2
        assert updater.stats().rollouts_skipped == 0
        assert "gate" in updater.stats_dict()["last_error"]

    def test_real_monitor_measures_real_generations(
        self, tmp_path, stream_market, live_events, base_inc
    ):
        """The real DriftMonitor wired through the updater: it assesses
        the serving-vs-new pair, and the rollout decision matches what
        it measured (live micro-batches genuinely reshape the taxonomy
        here, so the swap proceeds)."""
        from repro.analytics import DriftMonitor

        gate = DriftMonitor(threshold=0.0)
        switch, updater = self._run_two_generations(
            tmp_path, stream_market, live_events, base_inc, gate
        )
        drift = updater.stats_dict()["drift"]
        assert drift["assessments"] == 1
        last = drift["last"]
        assert (last["prev_generation"], last["new_generation"]) == (1, 2)
        skipped = updater.stats().rollouts_skipped
        trivial = (
            last["n_topics_prev"] == last["n_topics_new"]
            and last["changed_fraction"] <= gate.threshold
        )
        assert skipped == (1 if trivial else 0)
        assert switch.current.number == (1 if trivial else 2)

    def test_readers_only_ever_see_what_the_switch_rolled_out(
        self, tmp_path, stream_market, live_events, base_inc
    ):
        """A generation the gate skips must not reach readers by any
        other path. A tier the maintainer owned and refreshed inside
        advance() did exactly that: it served skipped generations,
        unprobed, with no gateway cache invalidated. So the maintainer
        owns no tier, and after every cycle the tier serves the
        switch's current model."""
        from repro.analytics import DriftMonitor

        assert not [
            name
            for name in ("service", "backend", "cluster")
            if hasattr(IncrementalShoal, name)
        ]
        tier = serving_tier(base_inc)
        switch = GenerationSwitch().attach(tier)
        _, pipe, updater = make_updater(
            tmp_path,
            base_inc,
            switch=switch,
            drift_gate=DriftMonitor(threshold=0.99),
        )
        updater.seed_log(stream_market.query_log.window(0, BASE_LAST_DAY))
        # Five 40-event generations: the first three change the topic
        # count and roll out, the gate holds back the last two.
        for n in range(5):
            for e in live_events[40 * n:40 * (n + 1)]:
                pipe.submit(event_payload(e))
            assert updater.run_once(timeout_s=0.0) is not None
            assert tier.service.model is switch.current.model
        stats = updater.stats()
        assert (stats.generations, stats.rollouts_skipped) == (5, 2)
        assert switch.current.number == 3
