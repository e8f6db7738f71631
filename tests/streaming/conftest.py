"""Shared fixtures for the streaming-ingest suite.

The streaming tests need a marketplace whose log outlives the 7-day
window (so live days exist to stream in) and a warm base maintainer;
both are expensive, so they are module-scoped where the test only
reads and function-scoped where it mutates.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import ServiceBackend
from repro.core.config import ShoalConfig
from repro.core.incremental import IncrementalShoal
from repro.data.marketplace import PROFILES, generate_marketplace
from repro.data.queries import QueryLogConfig
from repro.streaming import (
    GenerationInstaller,
    IngestPipe,
    StreamingUpdater,
    WriteAheadLog,
)

BASE_LAST_DAY = 6  # the 7-day base window is days 0..6


@pytest.fixture(scope="session")
def stream_market():
    """A tiny marketplace with a 9-day log: 7 base days + 2 live days."""
    cfg = dataclasses.replace(
        PROFILES["tiny"],
        query_log=QueryLogConfig(n_days=9, events_per_day=300),
    )
    return generate_marketplace(cfg)


@pytest.fixture(scope="session")
def stream_inputs(stream_market):
    titles = {e.entity_id: e.title for e in stream_market.catalog.entities}
    query_texts = {
        q.query_id: q.text for q in stream_market.query_log.queries
    }
    categories = {
        e.entity_id: e.category_id
        for e in stream_market.catalog.entities
    }
    return titles, query_texts, categories


@pytest.fixture(scope="session")
def live_events(stream_market):
    """The events beyond the base window, in event order."""
    return [
        e
        for e in stream_market.query_log.events
        if e.day > BASE_LAST_DAY
    ]


def make_base_inc(stream_market, stream_inputs) -> IncrementalShoal:
    """A fresh maintainer advanced over the base window (days 0..6)."""
    titles, query_texts, categories = stream_inputs
    inc = IncrementalShoal(
        ShoalConfig(), titles, query_texts, categories, retrain_every=100
    )
    inc.advance(stream_market.query_log, last_day=BASE_LAST_DAY)
    return inc


def serving_tier(inc: IncrementalShoal) -> ServiceBackend:
    """A read tier built from the maintainer's current model. Only a
    GenerationSwitch it is attached to keeps it current."""
    return ServiceBackend.from_model(
        inc.model, entity_categories=inc.entity_categories
    )


def installed_updater(root, inc, switch, *, drift_gate=None, **kwargs):
    """Both halves of the write path in one process: an updater folding
    ``root/wal`` into generations under ``root/gens``, and the installer
    that loads each one and swaps it in through ``switch``. Returns
    ``(pipe, updater, installer)``."""
    wal = WriteAheadLog(root / "wal", fsync="never")
    installer = GenerationInstaller(switch, wal, drift_gate=drift_gate)
    kwargs.setdefault("batch_max_age_s", 0.0)
    updater = StreamingUpdater(
        inc,
        wal,
        generations_dir=root / "gens",
        on_generation=installer.install,
        **kwargs,
    )
    return IngestPipe(wal, max_queue=10_000), updater, installer


@pytest.fixture
def base_inc(stream_market, stream_inputs) -> IncrementalShoal:
    return make_base_inc(stream_market, stream_inputs)


@pytest.fixture(scope="session")
def base_snapshot(tmp_path_factory, stream_market, stream_inputs):
    """The base maintainer's model saved as a snapshot: what a
    ``serve-http --ingest-wal`` primary restarts from."""
    inc = make_base_inc(stream_market, stream_inputs)
    return inc.model.save(
        tmp_path_factory.mktemp("stream") / "base",
        entity_categories=inc.entity_categories,
    )


def event_payload(event) -> dict:
    """A generated QueryEvent as a wire-shaped ingest payload."""
    return {
        "day": int(event.day),
        "user_id": int(event.user_id),
        "query_id": int(event.query_id),
        "clicked": [int(c) for c in event.clicked_entity_ids],
    }


def wait_for(predicate, timeout_s: float = 60.0, what: str = "condition"):
    """Poll ``predicate`` until it is true; fail the test after
    ``timeout_s`` (a fold process starts a fresh interpreter)."""
    import time

    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out after {timeout_s:.0f} s waiting for {what}")
        time.sleep(0.02)


def fold_process(snapshot, root, tier, *, tracer=None, **batch):
    """The write path ``serve-http --ingest-wal`` builds, for ``tier``
    (a backend or a gateway over it) serving ``snapshot``: a switch
    whose baseline is the snapshot, and a not-yet-started
    :class:`FoldProcess` over ``root/wal`` writing ``root/gens``.
    Returns ``(pipe, fold)``."""
    from repro.store.persistence import load_serving
    from repro.streaming import (
        FoldProcess,
        Generation,
        GenerationSwitch,
        probe_queries,
    )

    serving = load_serving(snapshot)
    switch = GenerationSwitch(
        probe_queries=probe_queries(serving.taxonomy),
        baseline=Generation(number=0, serving=serving),
    ).attach(tier)
    wal = WriteAheadLog(root / "wal", fsync="never")
    batch.setdefault("batch_max_events", 64)
    batch.setdefault("batch_max_age_s", 0.05)
    batch.setdefault("min_batch_events", 1)
    fold = FoldProcess(
        GenerationInstaller(switch, wal),
        snapshot=snapshot,
        wal=wal,
        generations_dir=root / "gens",
        tracer=tracer,
        **batch,
    )
    pipe = IngestPipe(
        wal, max_queue=10_000, applied_seq=lambda: fold.applied_seq
    )
    return pipe, fold
