"""Streaming ingest: live query traffic → model updates, zero downtime.

The write path of the serving stack. PRs 1–4 built a production-grade
*read* path (precomputed indexes, snapshots, a sharded cluster, one
typed gateway API); this package turns live query events into new
model generations while that read path keeps answering:

* :mod:`repro.streaming.wal` — :class:`WriteAheadLog`, an append-only,
  segmented, checksummed JSON-lines log of ingest events with fsync
  policies, torn-tail crash recovery, and day-based segment compaction;
* :mod:`repro.streaming.ingest` — :class:`IngestPipe`, the bounded
  admission queue in front of the WAL with count/age batching; what
  does not fit is shed with a stable gateway
  :class:`~repro.api.contract.ApiError` code;
* :mod:`repro.streaming.updater` — :class:`StreamingUpdater`, the
  micro-batch consumer that drains the pipe into
  :class:`~repro.core.incremental.IncrementalShoal` window slides and
  produces versioned snapshot **generations**;
* :mod:`repro.streaming.rollout` — :class:`GenerationSwitch`, which
  hot-swaps a new generation into its one single-service tier (a
  :class:`~repro.core.serving.ShoalService`, reached directly or
  through its backend, gateway or follower) with probe-query health
  checks and automatic rollback — the only path by which a generation
  reaches readers. The sharded tier is built once and never swapped.

Dataflow::

    client ──submit──▶ IngestPipe ──append──▶ WriteAheadLog (durable)
                           │ batch (count/age)
                           ▼
                   StreamingUpdater ──slide──▶ IncrementalShoal
                           │ generation (versioned snapshot)
                           ▼
                   GenerationSwitch ──hot-swap──▶ the serving tier
"""

from repro.streaming.ingest import IngestPipe
from repro.streaming.rollout import (
    Generation,
    GenerationSwitch,
    SwapError,
    SwapReport,
    probe_queries,
)
from repro.streaming.updater import StreamingUpdater, UpdaterStats
from repro.streaming.wal import (
    IngestEvent,
    WalCorruption,
    WriteAheadLog,
)

__all__ = [
    "IngestEvent",
    "IngestPipe",
    "Generation",
    "GenerationSwitch",
    "StreamingUpdater",
    "SwapError",
    "SwapReport",
    "UpdaterStats",
    "WalCorruption",
    "WriteAheadLog",
    "probe_queries",
]
