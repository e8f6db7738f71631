"""Streaming ingest: live query traffic → model updates, zero downtime.

The write path of the serving stack. PRs 1–4 built a production-grade
*read* path (precomputed indexes, snapshots, a sharded cluster, one
typed gateway API); this package turns live query events into new
model generations while that read path keeps answering:

* :mod:`repro.streaming.wal` — :class:`WriteAheadLog`, an append-only,
  segmented, checksummed JSON-lines log of ingest events with fsync
  policies, torn-tail crash recovery, and day-based segment compaction;
  :class:`SegmentReader` reads it lock-free from any process;
* :mod:`repro.streaming.ingest` — :class:`IngestPipe`, admission in
  front of the WAL; once the fold lags too far behind the log, what
  does not fit is shed with a stable gateway
  :class:`~repro.api.contract.ApiError` code;
* :mod:`repro.streaming.updater` — :class:`StreamingUpdater`, the fold
  loop, which runs in a child process of the server: it tails the WAL,
  slides an :class:`~repro.core.incremental.IncrementalShoal` window,
  and writes each **generation** as a full snapshot;
* :mod:`repro.streaming.fold` — :class:`FoldProcess`, which spawns and
  supervises that child in the serving process, and
  :class:`GenerationInstaller`, which loads each generation it writes
  (verified by fingerprint), swaps it in, checkpoints, ships and
  compacts;
* :mod:`repro.streaming.rollout` — :class:`GenerationSwitch`, which
  hot-swaps a new generation into its one single-service tier (a
  :class:`~repro.core.serving.ShoalService`, reached directly or
  through its backend, gateway or follower) with probe-query health
  checks and automatic rollback — the only path by which a generation
  reaches readers. The sharded tier is built once and never swapped.

Dataflow::

    serving process                        fold process (child)
    ───────────────                        ────────────────────
    client ─▶ IngestPipe ─append─▶ WAL ─read─▶ StreamingUpdater
                                                  │ slide IncrementalShoal
                                                  ▼
    GenerationSwitch ◀─load+swap── gen-NNNNN/ ◀─write (report on stdout)
          │ hot-swap
          ▼
    the serving tier; then CHECKPOINT.json, ship feed, WAL compaction
"""

from repro.streaming.fold import FoldProcess, GenerationInstaller
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
    SegmentReader,
    WalCorruption,
    WriteAheadLog,
)

__all__ = [
    "FoldProcess",
    "IngestEvent",
    "IngestPipe",
    "Generation",
    "GenerationInstaller",
    "GenerationSwitch",
    "StreamingUpdater",
    "SwapError",
    "SwapReport",
    "UpdaterStats",
    "WalCorruption",
    "WriteAheadLog",
    "SegmentReader",
    "probe_queries",
]
