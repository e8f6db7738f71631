"""Every metric the ledger emits: name, unit, direction, bound, where it applies.

Two gates read this table.

``compare.py`` holds two ledgers *of the same seed* against each other,
row by row, with the bounds of :data:`END_TO_END` — the ones issue 11
fixed, absolute where the issue said absolute — on the workloads each
metric is listed for.

The driver that runs ``BENCHMARK.json`` wants something else: one result
per invocation, every end-to-end metric from every workload, and a
relative bound at least as wide as the metric's spread across ten
*different* seeds. So ``BENCHMARK.json`` lists the metrics every workload
can produce (:data:`DRIVER_END_TO_END`; each serving workload reports its
own base fit, ``fit-xlarge`` serves its model briefly) with bounds sized
to that spread, and carries the four write-side metrics, which only
``mixed-ingest`` has, among the per-layer ones. A self-test keeps the
names, units and directions of the two files in step.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

SERVING = ("read-hot", "read-cold-batch", "mixed-ingest")


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" or "higher"
    #: By how much NEW may be worse than BASE: a share of BASE
    #: (``kind == "relative"``) or a difference in the metric's own unit.
    bound: float
    kind: str
    #: The workloads compare.py gates this metric on; ``None`` = all.
    workloads: Optional[Tuple[str, ...]]


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.15, "relative", None),
    EndToEnd("fit_s", "s", "lower", 0.10, "relative", ("fit-xlarge",)),
    EndToEnd("fit_peak_rss_mb", "MB", "lower", 0.10, "relative", ("fit-xlarge",)),
    EndToEnd("fit_precision", "share", "higher", 0.005, "absolute", ("fit-xlarge",)),
    EndToEnd("fit_modularity", "Q", "higher", 0.005, "absolute", ("fit-xlarge",)),
    EndToEnd("read_p50_ms", "ms", "lower", 0.10, "relative", SERVING),
    EndToEnd("read_slo_share", "share", "higher", 0.02, "absolute", SERVING),
    EndToEnd("server_cpu_ms_per_op", "ms", "lower", 0.10, "relative", SERVING),
    EndToEnd("write_ack_p50_ms", "ms", "lower", 0.10, "relative", ("mixed-ingest",)),
    EndToEnd("freshness_p50_s", "s", "lower", 0.15, "relative", ("mixed-ingest",)),
    # 0.15, not the issue's 0.10: the drain is five ~0.6 s folds, and back-to-back
    # ledgers of one commit were 11 % apart (README, "Baseline").
    EndToEnd("fold_events_per_s", "events/s", "higher", 0.15, "relative", ("mixed-ingest",)),
    EndToEnd("bytes_per_event", "bytes", "lower", 0.10, "relative", ("mixed-ingest",)),
]

#: The write path's end-to-end metrics; only ``mixed-ingest`` has one.
WRITE_SIDE = ("write_ack_p50_ms", "freshness_p50_s", "fold_events_per_s", "bytes_per_event")
#: What ``--trace 0`` prints, from every workload.
DRIVER_END_TO_END = tuple(m.name for m in END_TO_END if m.name not in WRITE_SIDE)

#: name, unit, better. The prefix is the layer: a module of this repository.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("client.floor_ms", "ms", "lower"),
    ("client.read_p50_traced_ms", "ms", "lower"),
    ("client.read_p95w_ms", "ms", "lower"),
    ("client.read_p99w_ms", "ms", "lower"),
    ("client.late_max_ms", "ms", "lower"),
    ("graph.bipartite_s", "s", "lower"),
    ("graph.entity_graph_s", "s", "lower"),
    ("graph.entity_graph_edges", "count", "lower"),
    ("text.word2vec_s", "s", "lower"),
    ("clustering.hac_s", "s", "lower"),
    ("clustering.hac_rounds", "count", "lower"),
    ("core.taxonomy_s", "s", "lower"),
    ("core.taxonomy_topics", "count", "higher"),
    ("core.descriptions_s", "s", "lower"),
    ("core.correlation_s", "s", "lower"),
    ("core.fit_unattributed_s", "s", "lower"),
    ("core.fit_spread", "ratio", "lower"),
    ("api.aio.edge_self_us", "us", "lower"),
    ("api.aio.hedges_launched", "count", "lower"),
    ("api.aio.hedges_won", "count", "higher"),
    ("api.aio.coalesce_events_per_flush", "count", "higher"),
    ("api.aio.server_start_s", "s", "lower"),
    ("api.contract.decode_us", "us", "lower"),
    ("api.contract.encode_us", "us", "lower"),
    ("api.contract.response_bytes", "bytes", "lower"),
    ("api.http.dispatch_self_us", "us", "lower"),
    ("api.http.dispatch_span_us", "us", "lower"),
    ("api.http.self_sum_share", "share", "higher"),
    ("api.http.ingest_self_us", "us", "lower"),
    ("api.middleware.gateway_self_us", "us", "lower"),
    ("api.middleware.cache_self_us", "us", "lower"),
    ("api.middleware.other_self_us", "us", "lower"),
    ("api.middleware.cache_hit_rate", "share", "higher"),
    ("api.middleware.cache_invalidations", "count", "lower"),
    ("api.backends.self_us", "us", "lower"),
    ("serving.router.self_us", "us", "lower"),
    ("serving.router.front_cache_hit_rate", "share", "higher"),
    ("serving.router.shards_probed_per_query", "count", "lower"),
    ("serving.router.busiest_shard_share", "share", "lower"),
    ("core.serving.search_self_us", "us", "lower"),
    ("core.serving.cache_hit_rate", "share", "higher"),
    ("core.serving.load_s", "s", "lower"),
    ("text.bm25.self_us", "us", "lower"),
    ("text.bm25.top_k_us", "us", "lower"),
    ("text.bm25.calls_per_query", "count", "lower"),
    ("text.bm25.candidates_per_call", "count", "lower"),
    ("streaming.ingest.submit_us", "us", "lower"),
    ("streaming.ingest.queue_depth_max", "count", "lower"),
    ("streaming.ingest.shed", "count", "lower"),
    ("streaming.wal.append_us", "us", "lower"),
    ("streaming.wal.fsyncs_per_kevent", "count", "lower"),
    ("streaming.wal.bytes_per_event", "bytes", "lower"),
    ("streaming.wal.compact_s", "s", "lower"),
    ("streaming.updater.fold_s", "s", "lower"),
    ("streaming.updater.generations", "count", "higher"),
    ("streaming.updater.events_per_generation", "count", "higher"),
    ("streaming.updater.read_p50_inflation", "ratio", "lower"),
    ("core.incremental.advance_s", "s", "lower"),
    ("store.persistence.save_s", "s", "lower"),
    ("store.persistence.snapshot_bytes", "bytes", "lower"),
    ("store.persistence.load_s", "s", "lower"),
    ("streaming.rollout.swap_s", "s", "lower"),
    ("streaming.rollout.probes", "count", "lower"),
    ("streaming.rollout.rollbacks", "count", "lower"),
    ("server.rss_mb_peak", "MB", "lower"),
    ("server.cpu_user_s", "s", "lower"),
    ("server.cpu_sys_s", "s", "lower"),
] + [(m.name, m.unit, m.better) for m in END_TO_END if m.name in WRITE_SIDE]

_FIT = "fit_s @ fit-xlarge; through the refit fold_events_per_s, freshness_p50_s @ mixed-ingest"
#: Which end-to-end metric each layer's metrics should move, and where:
#: predictions written down before any optimisation (README, interaction
#: table). A metric belongs to the longest layer prefix of its name.
MOVES: Dict[str, str] = {
    "client": "context for every latency",
    "graph": _FIT,
    "text.word2vec": _FIT,
    "clustering": _FIT,
    "core": _FIT,
    "api.aio": "read_p50_ms, server_cpu_ms_per_op @ read-hot; at most a quarter of the "
               "request @ read-cold-batch; write_ack_p50_ms @ mixed-ingest",
    "api.contract": "read_p50_ms @ read-hot; encode (320 hits per request) @ read-cold-batch",
    "api.http": "read_p50_ms @ read-hot",
    "api.middleware": "read_p50_ms @ read-hot (hit rate high); flat @ read-cold-batch "
                      "(hit rate 0)",
    "api.backends": "read_p50_ms @ read-cold-batch",
    "serving.router": "read_p50_ms, server_cpu_ms_per_op @ read-cold-batch; idle @ read-hot",
    "core.serving": "read_p50_ms @ read-cold-batch; setup_s",
    "text.bm25": "read_p50_ms, server_cpu_ms_per_op @ read-cold-batch; flat @ read-hot",
    "streaming.ingest": "write_ack_p50_ms @ mixed-ingest",
    "streaming.wal": "write_ack_p50_ms, bytes_per_event @ mixed-ingest",
    "streaming.updater": "fold_events_per_s, freshness_p50_s; through the interpreter "
                         "lock read_p50_ms, read_slo_share @ mixed-ingest",
    "core.incremental": "the bulk of streaming.updater.fold_s",
    "store.persistence": "freshness_p50_s, bytes_per_event @ mixed-ingest; setup_s",
    "streaming.rollout": "freshness_p50_s @ mixed-ingest",
    "server": "memory and syscall shifts",
}


def moves(metric: str) -> str:
    layer = max((p for p in MOVES if metric.startswith(p + ".")), key=len, default=None)
    # The write-side four are end-to-end metrics; they move themselves.
    return MOVES[layer] if layer else metric


E2E_UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END}
LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, _b in PER_LAYER}


def as_document() -> Dict[str, list]:
    """The catalogue as the ledger document carries it. This PR claims
    no gain: every end-to-end metric is a baseline (``claim`` is null)."""
    return {
        "end_to_end": [
            {**m._asdict(), "workloads": list(m.workloads) if m.workloads else "all",
             "claim": None}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better, "moves": moves(name)}
            for name, unit, better in PER_LAYER
        ],
    }
