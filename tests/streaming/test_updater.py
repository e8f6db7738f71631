"""StreamingUpdater: micro-batches, generations, crash recovery.

The updater is the fold process's loop; here it runs in the test's own
process, reading the WAL the way the child does, and hands each
generation to a :class:`GenerationInstaller` where a test needs the
serving side. The crash tests simulate "kill -9 the fold process" by
abandoning a half-applied state and standing up a brand-new updater
over the same directories — exactly what a process restart does. The
invariant: the rebuilt window contains every admitted event exactly
once (idempotent replay via WAL sequence numbers), no matter where the
kill landed.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.incremental import IncrementalShoal
from repro.obs.tracer import Tracer, set_default_tracer
from repro.store.persistence import read_manifest, snapshot_fingerprint
from repro.streaming import (
    GenerationInstaller,
    GenerationSwitch,
    IngestPipe,
    StreamingUpdater,
    WriteAheadLog,
)
from repro.streaming.wal import read_checkpoint

from tests.streaming.conftest import (
    BASE_LAST_DAY,
    event_payload,
    installed_updater,
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
    kwargs.setdefault("batch_max_age_s", 0.0)
    updater = StreamingUpdater(
        inc, wal, generations_dir=tmp_path / "gens", **kwargs
    )
    return wal, pipe, updater


def make_installed(tmp_path, inc, *, drift_gate=None, **kwargs):
    """An updater whose generations a serving-side installer swaps into
    a tier built from ``inc``'s model."""
    switch = GenerationSwitch().attach(serving_tier(inc))
    pipe, updater, installer = installed_updater(
        tmp_path, inc, switch, drift_gate=drift_gate, **kwargs
    )
    return switch, installer, pipe, updater


class TestMicroBatches:
    def test_generation_covers_the_drained_batch(
        self, tmp_path, live_events, base_inc
    ):
        _, pipe, updater = make_updater(tmp_path, base_inc)
        for e in live_events[:40]:
            pipe.submit(event_payload(e))
        generation = updater.run_once(timeout_s=0.0)
        assert generation is not None
        assert generation.number == 1
        assert generation.applied_seq == 40
        assert generation.last_day == live_events[39].day
        assert updater.stats().events_applied == 40

    def test_min_batch_events_defers_tiny_batches(
        self, tmp_path, live_events, base_inc
    ):
        _, pipe, updater = make_updater(
            tmp_path, base_inc, min_batch_events=10
        )
        for e in live_events[:4]:
            pipe.submit(event_payload(e))
        assert updater.run_once(timeout_s=0.0) is None  # applied, deferred
        assert updater.stats().events_applied == 4
        for e in live_events[4:12]:
            pipe.submit(event_payload(e))
        generation = updater.run_once(timeout_s=0.0)
        assert generation is not None and generation.applied_seq == 12

    def test_generations_persist_as_full_snapshots(
        self, tmp_path, live_events, base_inc
    ):
        """A generation is everything a restart needs: the fit
        artifacts, the click window, its WAL cut and the retrain
        counter."""
        _, pipe, updater = make_updater(tmp_path, base_inc)
        for e in live_events[:25]:
            pipe.submit(event_payload(e))
        generation = updater.run_once(timeout_s=0.0)
        assert generation.snapshot_dir == tmp_path / "gens" / "gen-00001"
        manifest = read_manifest(generation.snapshot_dir)
        assert "window.npz" in manifest["artifacts"]
        assert "embeddings.npz" in manifest["artifacts"]
        meta = manifest["metadata"]
        assert meta["generation"] == 1
        assert meta["applied_seq"] == 25
        assert meta["last_day"] == live_events[24].day
        assert meta["first_day"] == live_events[24].day - 6
        assert meta["fits_since_retrain"] == base_inc.fits_since_retrain
        assert updater.last_report["fingerprint"] == snapshot_fingerprint(
            generation.snapshot_dir
        )

    def test_only_the_newest_generations_are_kept(
        self, tmp_path, live_events, base_inc
    ):
        from repro.streaming.fold import KEEP_GENERATIONS, generation_dirs

        _, pipe, updater = make_updater(tmp_path, base_inc)
        for e in live_events[: KEEP_GENERATIONS + 2]:
            pipe.submit(event_payload(e))
            assert updater.run_once(timeout_s=0.0) is not None
        kept = [number for number, _ in generation_dirs(tmp_path / "gens")]
        assert kept == list(range(3, KEEP_GENERATIONS + 3))

    def test_generation_manifest_says_where_the_fold_went(
        self, tmp_path, live_events, base_inc
    ):
        _, pipe, updater = make_updater(tmp_path, base_inc)
        for e in live_events[:25]:
            pipe.submit(event_payload(e))
        generation = updater.run_once(timeout_s=0.0)
        stages = read_manifest(generation.snapshot_dir)["stage_seconds"]
        # Warm embeddings: the fold ran every stage but word2vec.
        assert sorted(stages) == sorted(FOLD_STAGES)
        assert all(seconds >= 0.0 for seconds in stages.values())

    def test_fit_stages_nest_under_the_fold_trace(
        self, tmp_path, live_events, base_inc
    ):
        tracer = Tracer()
        set_default_tracer(tracer)
        try:
            _, pipe, updater = make_updater(tmp_path, base_inc)
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

    def test_checkpoint_written_after_each_swap(
        self, tmp_path, live_events, base_inc
    ):
        switch, _, pipe, updater = make_installed(tmp_path, base_inc)
        for e in live_events[:15]:
            pipe.submit(event_payload(e))
        updater.run_once(timeout_s=0.0)
        assert switch.current.number == 1
        checkpoint = read_checkpoint(tmp_path / "wal")
        assert checkpoint["applied_seq"] == 15
        assert checkpoint["generation"] == 1

    def test_a_generation_whose_files_changed_is_not_installed(
        self, tmp_path, live_events, base_inc
    ):
        """The serving side loads a generation only if its files are the
        ones the fold reported: the follower's verified path."""
        switch = GenerationSwitch().attach(serving_tier(base_inc))
        wal, pipe, updater = make_updater(tmp_path, base_inc)
        installer = GenerationInstaller(switch, wal)
        for e in live_events[:15]:
            pipe.submit(event_payload(e))
        generation = updater.run_once(timeout_s=0.0)
        texts = generation.snapshot_dir / "texts.json"
        texts.write_text(texts.read_text() + "\n")  # still loads
        assert installer.install(updater.last_report) is None
        stats = installer.stats()
        assert stats["load_failures"] == 1
        assert "changed since it was verified" in stats["last_error"]
        assert switch.current is None
        assert read_checkpoint(tmp_path / "wal") is None

    def test_live_query_text_registration(
        self, tmp_path, stream_market, base_inc
    ):
        """An unseen query string arrives with its first event and is
        registered for description scoring in the next window."""
        _, pipe, updater = make_updater(tmp_path, base_inc)
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
        assert updater.run_once(timeout_s=0.0) is not None
        texts = base_inc.model.query_texts
        assert texts[fresh_id] == "brand new trend"
        assert len(texts) == len(stream_market.query_log.queries) + 1


    def test_live_redefinition_keeps_the_original_text(
        self, tmp_path, live_events, base_inc
    ):
        """The maintainer's query texts are the one registry: an event
        that renames a known query counts its clicks, and the original
        text stays in the model and in every topic description."""
        known = live_events[0]
        original = base_inc.model.query_texts[known.query_id]
        _, pipe, updater = make_updater(tmp_path, base_inc)
        pipe.submit({**event_payload(known), "query_text": "renamed query"})
        for e in live_events[1:10]:
            pipe.submit(event_payload(e))
        assert updater.run_once(timeout_s=0.0) is not None
        assert updater.stats().events_applied == 10
        model = base_inc.model
        assert model.query_texts[known.query_id] == original
        described = [
            score.text
            for scores in model.descriptions.values()
            for score in scores
            if score.query_id == known.query_id
        ]
        assert described and set(described) == {original}
        assert "renamed query" not in model.query_texts.values()


class TestPoisonEvents:
    def test_unregistered_query_without_text_is_skipped_not_fatal(
        self, tmp_path, stream_market, live_events, base_inc
    ):
        """A WAL-durable event whose query_id nobody knows (and that
        carries no query_text) must not kill its batch — and must not
        brick recovery, which replays the same WAL forever."""
        _, pipe, updater = make_updater(tmp_path, base_inc)
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
        self, tmp_path, live_events, base_inc
    ):
        """One event stamped day 999999 must not evict every retained
        day (window retention keys off the newest day)."""
        _, pipe, updater = make_updater(tmp_path, base_inc)
        before_days = updater.window.days()
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
        assert set(before_days) <= set(updater.window.days()) | {0}
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
        wal1, pipe1, updater1 = make_updater(
            tmp_path, inc1, batch_max_events=30, min_batch_events=1000
        )
        for e in live_events[:60]:
            pipe1.submit(event_payload(e))
        # Half the events reach the window, then the process dies: no
        # generation, no checkpoint, read-ahead lost with the heap.
        assert updater1.run_once(timeout_s=0.0) is None
        assert updater1.applied_seq == 30
        assert updater1.window.n_events() == expected_window_events(30)
        wal1.close()
        del updater1, pipe1, wal1

        # Process restart: fresh maintainer, fresh window, same WAL dir.
        inc2 = make_base_inc(stream_market, stream_inputs)
        wal2, pipe2, updater2 = make_updater(tmp_path, inc2)
        recovered = updater2.recover()
        assert recovered == 60  # every admitted event, exactly once
        assert updater2.window.n_events() == expected_window_events(60)
        assert updater2.stats().events_duplicate == 0
        assert updater2.applied_seq == 60

        # Nothing new to read, and the same records offered again are
        # no-ops (idempotent by seq).
        assert updater2.recover() == 0
        assert updater2._apply_events(wal2.replay()) == 0
        assert updater2.stats().events_duplicate == 60
        assert updater2.window.n_events() == expected_window_events(60)

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
        updater = StreamingUpdater(
            inc, wal2, generations_dir=tmp_path / "gens"
        )
        assert updater.recover() == 20  # exact admitted count survives


class TestBatching:
    """A micro-batch is cut from what the WAL holds by count or by the
    age of its oldest read event, whichever trips first."""

    def test_batch_fills_to_count(self, tmp_path, live_events, base_inc):
        _, pipe, updater = make_updater(
            tmp_path, base_inc, batch_max_events=4, batch_max_age_s=10.0,
            min_batch_events=1000,
        )
        for e in live_events[:10]:
            pipe.submit(event_payload(e))
        assert updater.run_once(timeout_s=0.1) is None
        assert updater.applied_seq == 4

    def test_partial_batch_releases_on_age(
        self, tmp_path, live_events, base_inc
    ):
        ticks = iter([0.0, 0.0, 0.0, 10.0])
        _, pipe, updater = make_updater(
            tmp_path, base_inc, batch_max_events=100, batch_max_age_s=1.0,
            min_batch_events=1000, clock=lambda: next(ticks, 10.0),
        )
        pipe.submit(event_payload(live_events[0]))
        assert updater.run_once(timeout_s=0.1) is None
        assert updater.applied_seq == 1  # age tripped, count did not

    def test_empty_timeout_applies_nothing(self, tmp_path, base_inc):
        _, _, updater = make_updater(tmp_path, base_inc)
        assert updater.run_once(timeout_s=0.01) is None
        assert updater.applied_seq == 0

    def test_batches_preserve_order_across_takes(
        self, tmp_path, live_events, base_inc
    ):
        _, pipe, updater = make_updater(
            tmp_path, base_inc, batch_max_events=3, min_batch_events=1000
        )
        for e in live_events[:7]:
            pipe.submit(event_payload(e))
        seen = []
        while updater.applied_seq < 7:
            updater.run_once(timeout_s=0.01)
            seen.append(updater.applied_seq)
        assert seen == [3, 6, 7]


def _fold_process(snapshot, root, **kwargs):
    """What the fold process builds at start: its newest generation (the
    snapshot before the first), then the WAL under ``root`` after that
    generation's cut. ``retrain_every`` is smaller than the number of
    generations a test writes, so a restart must carry the counter."""
    wal = WriteAheadLog(root / "wal", fsync="never", **kwargs)
    updater = StreamingUpdater.restart(
        snapshot,
        wal,
        root / "gens",
        retrain_every=2,
        batch_max_age_s=0.0,
        min_batch_events=5,
        on_generation=lambda report: wal.compact(
            report["first_day"], covered_seq=report["applied_seq"]
        ),
    )
    updater.recover()
    return wal, IngestPipe(wal, max_queue=10_000), updater


def _live_payloads(events):
    """Wire payloads for ``events``; every fifth introduces a query never
    seen before, with words no title or query used, so an embedding
    retrain over the grown registry gives different vectors and the
    fold's output depends on when retrains happen."""
    payloads = []
    for i, e in enumerate(events):
        payload = event_payload(e)
        if i % 5 == 0:
            payload["query_id"] = 1_000_000 + i
            payload["query_text"] = f"zqnovel{i} zqtrend{i % 3}"
        payloads.append(payload)
    return payloads


def _next_generation(pipe, updater, payloads):
    for payload in payloads:
        pipe.submit(payload)
    generation = None
    while generation is None:
        generation = updater.run_once(timeout_s=0.0)
    return generation


class TestRestartFromGeneration:
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_restart_at_any_boundary_matches_an_uninterrupted_run(
        self, data, base_snapshot, live_events
    ):
        """Kill the fold process at a generation boundary and restart it
        from its newest generation + WAL: its next generation has the
        fingerprint the uninterrupted run produced for the same events,
        embedding retrains included."""
        sizes = data.draw(
            st.lists(st.integers(5, 40), min_size=3, max_size=4),
            label="generation sizes",
        )
        cuts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
        kill_after = data.draw(
            st.integers(0, len(sizes) - 1), label="generations before kill"
        )
        payloads = _live_payloads(live_events[: cuts[-1]])
        batches = [payloads[a:b] for a, b in zip(cuts, cuts[1:])]

        straight = Path(tempfile.mkdtemp(prefix="restart-straight-"))
        _, pipe, updater = _fold_process(base_snapshot, straight)
        want = [
            snapshot_fingerprint(
                _next_generation(pipe, updater, batch).snapshot_dir
            )
            for batch in batches
        ]

        killed = Path(tempfile.mkdtemp(prefix="restart-killed-"))
        wal, pipe, updater = _fold_process(base_snapshot, killed)
        for batch in batches[:kill_after]:
            _next_generation(pipe, updater, batch)
        wal.close()
        _, pipe, updater = _fold_process(base_snapshot, killed)
        assert updater.applied_seq == cuts[kill_after]
        assert updater.current_generation == kill_after
        generation = _next_generation(pipe, updater, batches[kill_after])
        assert snapshot_fingerprint(generation.snapshot_dir) == (
            want[kill_after]
        )

    def test_restart_after_wal_compaction_matches(
        self, tmp_path, base_snapshot, live_events
    ):
        """The window slides past the first live days, so compaction
        deletes their segments; a fold killed after that restarts from
        its generation, not from the snapshot plus a WAL that no longer
        holds them, and writes the uninterrupted run's next generation."""
        dated = [
            {**event_payload(e), "day": 7 + i // 10}
            for i, e in enumerate(live_events[:120])
        ]
        batches = [dated[i:i + 10] for i in range(0, len(dated), 10)]

        def run(root, kill_after=None):
            wal, pipe, updater = _fold_process(
                base_snapshot, root, segment_max_events=8
            )
            fingerprints = []
            for n, batch in enumerate(batches):
                if n == kill_after:
                    compacted = wal.stats()["compacted_segments"]
                    wal.close()
                    wal, pipe, updater = _fold_process(
                        base_snapshot, root, segment_max_events=8
                    )
                    assert updater.current_generation == n
                for payload in batch:
                    pipe.submit(payload)
                generation = None
                while generation is None:
                    generation = updater.run_once(timeout_s=0.0)
                fingerprints.append(snapshot_fingerprint(generation.snapshot_dir))
            return fingerprints, (compacted if kill_after else None)

        want, _ = run(tmp_path / "straight")
        got, compacted = run(tmp_path / "killed", kill_after=10)
        assert compacted > 0  # segments were gone before the kill
        assert got == want


class TestDriftGate:
    """The analytics drift monitor, consulted before each rollout."""

    def _run_two_generations(
        self, tmp_path, live_events, base_inc, gate
    ):
        switch, installer, pipe, updater = make_installed(
            tmp_path, base_inc, drift_gate=gate
        )
        for e in live_events[:40]:
            pipe.submit(event_payload(e))
        updater.run_once(timeout_s=0.0)
        for e in live_events[40:80]:
            pipe.submit(event_payload(e))
        updater.run_once(timeout_s=0.0)
        return switch, updater, installer

    def test_trivial_generation_is_produced_but_not_rolled_out(
        self, tmp_path, live_events, base_inc
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
        switch, updater, installer = self._run_two_generations(
            tmp_path, live_events, base_inc, gate
        )
        # Generation 1 had nothing serving to compare against and rolled
        # out; generation 2 was gated and skipped.
        assert gate.consulted == [(1, 2)]
        assert switch.current.number == 1
        assert updater.stats().generations == 2  # produced anyway
        assert read_checkpoint(tmp_path / "wal")["generation"] == 2
        stats = installer.stats()
        assert stats["rollouts_skipped"] == 1
        assert stats["drift"] == {"assessments": 1}

    def test_gate_failure_is_advisory_rollout_proceeds(
        self, tmp_path, live_events, base_inc
    ):
        class Broken:
            def should_skip(self, prev, new):
                raise RuntimeError("gate exploded")

            def stats(self):
                return {}

        switch, _, installer = self._run_two_generations(
            tmp_path, live_events, base_inc, Broken()
        )
        assert switch.current.number == 2
        stats = installer.stats()
        assert stats["rollouts_skipped"] == 0
        assert "gate" in stats["last_error"]

    def test_real_monitor_measures_real_generations(
        self, tmp_path, live_events, base_inc
    ):
        """The real DriftMonitor wired through the updater: it assesses
        the serving-vs-new pair, and the rollout decision matches what
        it measured (live micro-batches genuinely reshape the taxonomy
        here, so the swap proceeds)."""
        from repro.analytics import DriftMonitor

        gate = DriftMonitor(threshold=0.0)
        switch, _, installer = self._run_two_generations(
            tmp_path, live_events, base_inc, gate
        )
        drift = installer.stats()["drift"]
        assert drift["assessments"] == 1
        last = drift["last"]
        assert (last["prev_generation"], last["new_generation"]) == (1, 2)
        skipped = installer.stats()["rollouts_skipped"]
        trivial = (
            last["n_topics_prev"] == last["n_topics_new"]
            and last["changed_fraction"] <= gate.threshold
        )
        assert skipped == (1 if trivial else 0)
        assert switch.current.number == (1 if trivial else 2)

    def test_readers_only_ever_see_what_the_switch_rolled_out(
        self, tmp_path, live_events, base_inc
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
        switch, installer, pipe, updater = make_installed(
            tmp_path, base_inc, drift_gate=DriftMonitor(threshold=0.99)
        )
        tier = switch._engine  # the ShoalService the switch refreshes
        # Five 40-event generations: the first three change the topic
        # count and roll out, the gate holds back the last two.
        for n in range(5):
            for e in live_events[40 * n:40 * (n + 1)]:
                pipe.submit(event_payload(e))
            assert updater.run_once(timeout_s=0.0) is not None
            assert tier.taxonomy is switch.current.serving.taxonomy
        assert updater.stats().generations == 5
        assert installer.stats()["rollouts_skipped"] == 2
        assert switch.current.number == 3
