"""What one run observed, and the metrics computed from it.

``SetUp`` and ``Phase`` hold what ``run.py`` saw from outside the
server; the functions below turn them into the end-to-end metrics
(``--trace 0``), the write-side metrics and the per-layer table
(``--trace 1``, which also needs the spans). Nothing here starts a
process or opens a socket, so the self-tests drive it with synthetic runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple

import catalogue
import spans as span_lib
from loadgen import Sample, percentile, split_windows, windowed_percentile
from workloads import BATCH_QUERIES, WorkloadSpec

E2E_WINDOWS = 5
TAIL_WINDOWS = 10

#: The reported self-time metrics of everything that runs under a
#: ``GatewayCore.dispatch_request`` span, with the span names each sums.
#: Together they must account for the span (``api.http.self_sum_share``):
#: a layer that does work there without a metric of its own fails the run.
UNDER_DISPATCH = (
    ("api.http.dispatch_self_us", ("api.http.dispatch",)),
    ("api.middleware.gateway_self_us", ("api.middleware.gateway",)),
    ("api.middleware.cache_self_us", ("api.middleware.cache",)),
    ("api.middleware.other_self_us", ("api.middleware.other",)),
    ("api.backends.self_us", ("api.backends",)),
    ("serving.router.self_us", ("serving.router",)),
    ("core.serving.search_self_us", ("core.serving.search",)),
    ("text.bm25.self_us", ("text.bm25.top_k", "text.bm25.candidates")),
)


class CheckFailed(Exception):
    """An output of the program was wrong; the run is not a measurement."""


@dataclass
class SetUp:
    """The last of a run's set-ups, and the timings of all of them."""

    market: Any
    model: Any
    server: Any  # server.Server, still running
    reference_uri: str
    setup_s: List[float]
    fit_s: List[float]
    fit_peak_rss_mb: float
    server_start_s: float
    snapshot_bytes: int
    wal_dir: Optional[Path]
    generations_dir: Optional[Path]


@dataclass
class Phase:
    """Everything one run observed from outside the server."""

    lo: float = 0.0  # timed phase, perf_counter seconds
    hi: float = 0.0
    per_conn: List[List[Sample]] = field(default_factory=list)
    samples: List[Sample] = field(default_factory=list)  # per_conn, flattened
    floor_ms: float = 0.0
    cpu_lo: Tuple[float, float] = (0.0, 0.0)  # (user, system) seconds
    cpu_hi: Tuple[float, float] = (0.0, 0.0)
    #: Server CPU seconds at each of the E2E_WINDOWS + 1 window edges.
    cpu_edges: List[float] = field(default_factory=list)
    rss_peak_mb: float = 0.0
    checkpoints: List[Tuple[float, int]] = field(default_factory=list)
    drain_s: float = 0.0
    drain_events: int = 0
    last_acked_seq: int = 0
    metrics: Dict[str, Any] = field(default_factory=dict)
    wal_bytes: int = 0
    generations_bytes: int = 0


def timed(phase: Phase, kind: str) -> List[Sample]:
    return [s for s in phase.samples if s.kind == kind and phase.lo <= s.due < phase.hi]


def read_p50_ms(phase: Phase) -> float:
    stamped = [(s.due, s.latency_ms) for s in timed(phase, "read") if s.status == 200]
    value = windowed_percentile(stamped, phase.lo, phase.hi, E2E_WINDOWS, 50)
    if value is None:
        raise CheckFailed("no read was answered inside the timed phase")
    return value


def within_run_spread(values: Sequence[float]) -> float:
    """(max - min) / median of the repeats or windows one run's value is
    the median of; compare.py calls a difference it cannot tell from
    this 'unresolved'."""
    return (max(values) - min(values)) / median(values) if len(values) > 1 else 0.0


def spreads(setup: SetUp, phase: Phase) -> Dict[str, float]:
    out = {
        "setup_s": within_run_spread(setup.setup_s),
        "fit_s": within_run_spread(setup.fit_s),
        "server_cpu_ms_per_op": within_run_spread(cpu_ms_per_op_windows(phase)),
    }
    for metric, kind in (("read_p50_ms", "read"), ("write_ack_p50_ms", "write")):
        stamped = [(s.due, s.latency_ms) for s in timed(phase, kind) if s.status == 200]
        per_window = [
            percentile(sorted(w), 50)
            for w in split_windows(stamped, phase.lo, phase.hi, E2E_WINDOWS) if w
        ]
        if per_window:
            out[metric] = within_run_spread(per_window)
    return out


def end_to_end_metrics(
    spec: WorkloadSpec, setup: SetUp, phase: Phase, precision: float, modularity: float
) -> Dict[str, float]:
    reads = timed(phase, "read")
    in_time = sum(1 for s in reads if s.status == 200 and s.latency_ms <= spec.slo_ms)
    return {
        "setup_s": median(setup.setup_s),
        # The fastest of the repeats: on a shared box noise only adds.
        "fit_s": min(setup.fit_s),
        "fit_peak_rss_mb": setup.fit_peak_rss_mb,
        "fit_precision": precision,
        "fit_modularity": modularity,
        "read_p50_ms": read_p50_ms(phase),
        "read_slo_share": in_time / len(reads),
        "server_cpu_ms_per_op": median(cpu_ms_per_op_windows(phase)),
    }


def cpu_ms_per_op_windows(phase: Phase) -> List[float]:
    """Server CPU per completed read or write, one value per window."""
    width = (phase.hi - phase.lo) / E2E_WINDOWS
    done = [0] * E2E_WINDOWS
    for s in phase.samples:
        if s.status == 200 and phase.lo <= s.done < phase.hi:
            done[min(int((s.done - phase.lo) / width), E2E_WINDOWS - 1)] += 1
    values = [
        (b - a) * 1000.0 / n
        for a, b, n in zip(phase.cpu_edges, phase.cpu_edges[1:], done) if n
    ]
    if not values:
        raise CheckFailed("no request completed inside the timed phase")
    return values


def write_side_metrics(phase: Phase) -> Dict[str, float]:
    """The write path's end-to-end metrics; zeros where nothing is written."""
    writes = [s for s in timed(phase, "write") if s.status == 200]
    if not writes:
        return {name: 0.0 for name in catalogue.WRITE_SIDE}
    ack_p50 = windowed_percentile(
        [(s.due, s.latency_ms) for s in writes], phase.lo, phase.hi, E2E_WINDOWS, 50
    )
    fresh = []
    for s in writes:
        seq = json.loads(s.body)["last_seq"]
        seen = next((t for t, applied in phase.checkpoints if applied >= seq), None)
        if seen is not None:
            fresh.append(max(0.0, seen - s.done))
    acked = phase.last_acked_seq
    return {
        "write_ack_p50_ms": ack_p50 or 0.0,
        "freshness_p50_s": median(fresh) if fresh else 0.0,
        "fold_events_per_s": phase.drain_events / phase.drain_s if phase.drain_s else 0.0,
        "bytes_per_event": (phase.wal_bytes + phase.generations_bytes) / max(acked, 1),
    }


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(
    spec: WorkloadSpec,
    setup: SetUp,
    phase: Phase,
    local_spans: Sequence[span_lib.Span],
    server_doc: Dict[str, Any],
    client_anchor: Tuple[int, int],
) -> Dict[str, float]:
    """The per-layer table from the traced run: spans recorded in this
    process (fits, saves), spans dumped by the server, ``/v1/metrics``
    and the generator's own samples."""
    m: Dict[str, float] = {name: 0.0 for name in catalogue.LAYER_UNITS}
    reads = timed(phase, "read")
    ok_reads = [s for s in reads if s.status == 200]
    n_queries = len(ok_reads) * (BATCH_QUERIES if spec.read_shape == "cold-batch" else 1)

    # client
    stamped = [(s.due, s.latency_ms) for s in ok_reads]
    m["client.floor_ms"] = phase.floor_ms
    m["client.read_p50_traced_ms"] = read_p50_ms(phase)
    for name, q in (("client.read_p95w_ms", 95), ("client.read_p99w_ms", 99)):
        # 0 = absent: no window had ten samples beyond the percentile.
        m[name] = windowed_percentile(
            stamped, phase.lo, phase.hi, TAIL_WINDOWS, q, min_beyond=10
        ) or 0.0
    m["client.late_max_ms"] = max((s.sent - s.due) * 1000.0 for s in phase.samples)
    m["api.contract.response_bytes"] = _mean(
        [len(s.body) for s in phase.samples if s.kind == "read" and s.body]
    )

    # fit stages, from the base fits this process ran
    fits = [s for s in local_spans if s[0] == "core.fit"]
    fit_self = span_lib.self_times_ns(local_spans)
    for metric, span_name in (
        ("graph.bipartite_s", "graph.bipartite"),
        ("graph.entity_graph_s", "graph.entity_graph"),
        ("text.word2vec_s", "text.word2vec"),
        ("clustering.hac_s", "clustering.hac"),
        ("core.taxonomy_s", "core.taxonomy"),
        ("core.descriptions_s", "core.descriptions"),
        ("core.correlation_s", "core.correlation"),
    ):
        total = sum(s[2] - s[1] for s in local_spans if s[0] == span_name)
        m[metric] = total / 1e9 / max(len(fits), 1)
    m["core.fit_unattributed_s"] = _mean(
        [fit_self[i] / 1e9 for i, s in enumerate(local_spans) if s[0] == "core.fit"]
    )
    m["core.fit_spread"] = (max(setup.fit_s) - min(setup.fit_s)) / min(setup.fit_s)
    m["graph.entity_graph_edges"] = float(setup.model.entity_graph.n_edges)
    m["clustering.hac_rounds"] = float(setup.model.clustering.n_rounds)
    m["core.taxonomy_topics"] = float(len(setup.model.taxonomy))

    # the server's spans, on the generator's clock
    spans = server_doc["spans"]
    s_perf, s_wall = server_doc["anchor"]
    c_perf, c_wall = client_anchor

    def to_server_ns(t_client_s: float) -> int:
        return int(t_client_s * 1e9) - c_perf + c_wall - s_wall + s_perf

    def to_client_s(t_server_ns: int) -> float:
        return (t_server_ns - s_perf + s_wall - c_wall + c_perf) / 1e9

    lo_ns, hi_ns = to_server_ns(phase.lo), to_server_ns(phase.hi)
    all_self = span_lib.self_times_ns(spans)
    by_name, n_roots, root_ns = span_lib.self_by_name_under(
        spans, all_self, "api.http.dispatch", lo_ns, hi_ns
    )
    per_request = max(n_roots, 1) * 1e3  # ns totals -> us per request
    for metric, span_names in UNDER_DISPATCH:
        m[metric] = sum(by_name.get(name, 0) for name in span_names) / per_request
    m["api.http.dispatch_span_us"] = root_ns / per_request
    if root_ns:
        m["api.http.self_sum_share"] = (
            sum(m[metric] for metric, _names in UNDER_DISPATCH) / m["api.http.dispatch_span_us"]
        )
    in_phase = [s for s in spans if lo_ns <= s[1] < hi_ns]

    def durations(name: str, pool=in_phase) -> List[int]:
        return [s[2] - s[1] for s in pool if s[0] == name]

    service_ms = _mean([(s.done - s.sent) * 1000.0 for s in ok_reads])
    m["api.aio.edge_self_us"] = service_ms * 1e3 - m["api.http.dispatch_span_us"]
    m["api.contract.decode_us"] = _mean(durations("api.contract.decode")) / 1e3
    n_requests = max(len(reads) + len(timed(phase, "write")), 1)
    roots_in_phase = [s for s in in_phase if s[3] < 0]
    m["api.contract.encode_us"] = (
        sum(durations("api.contract.encode", roots_in_phase)) / 1e3 / n_requests
    )
    m["api.http.ingest_self_us"] = _mean(
        [all_self[i] for i, s in enumerate(spans) if s[0] == "api.http.ingest"]
    ) / 1e3

    # caches, counted at the lookup
    lookups = {(asker, bool(hit)): n for asker, hit, n in server_doc["cache_lookups"]}
    for metric, asker in (
        ("api.middleware.cache_hit_rate", "api.middleware.cache"),
        ("serving.router.front_cache_hit_rate", "serving.router"),
        ("core.serving.cache_hit_rate", "core.serving.search"),
    ):
        m[metric] = _rate(lookups.get((asker, True), 0), lookups.get((asker, False), 0))
    backend = phase.metrics.get("backend") or {}
    m["api.middleware.cache_invalidations"] = float(
        (backend.get("gateway_cache") or {}).get("invalidations", 0)
    )

    # router and engine
    router_queries = sum(n for (asker, _hit), n in lookups.items() if asker == "serving.router")
    probes = [
        s for s in spans
        if s[0] == "core.serving.search" and s[3] >= 0 and spans[s[3]][0] == "serving.router"
    ]
    if router_queries:
        m["serving.router.shards_probed_per_query"] = len(probes) / router_queries
    busy: Dict[int, int] = {}
    for s in probes:
        busy[s[5]] = busy.get(s[5], 0) + s[2] - s[1]
    if busy:
        m["serving.router.busiest_shard_share"] = max(busy.values()) / sum(busy.values())
    top_k = durations("text.bm25.top_k")
    m["text.bm25.top_k_us"] = _mean(top_k) / 1e3
    m["text.bm25.calls_per_query"] = len(top_k) / max(n_queries, 1)
    m["text.bm25.candidates_per_call"] = _mean(
        [s[6] for s in in_phase if s[0] == "text.bm25.candidates"]
    )
    loads = [s for s in spans if s[3] < 0 and s[0] in ("core.serving.load", "store.persistence.load")]
    m["core.serving.load_s"] = sum(s[2] - s[1] for s in loads) / 1e9

    # persistence: this process saved the base artifacts, the server the generations
    saves = durations("store.persistence.save", spans) + durations(
        "store.persistence.save", local_spans
    )
    m["store.persistence.save_s"] = _mean(saves) / 1e9
    m["store.persistence.load_s"] = _mean(durations("store.persistence.load", spans)) / 1e9
    m["store.persistence.snapshot_bytes"] = float(setup.snapshot_bytes)

    # write path
    submits = [(i, s) for i, s in enumerate(spans) if s[0] == "streaming.ingest.submit"]
    m["streaming.ingest.submit_us"] = _mean([all_self[i] for i, _s in submits]) / 1e3
    m["streaming.wal.append_us"] = _mean(durations("streaming.wal.append", spans)) / 1e3
    m["streaming.wal.compact_s"] = _mean(durations("streaming.wal.compact", spans)) / 1e9
    takes = [s for s in spans if s[0] == "streaming.ingest.take_batch"]
    depth = peak = 0
    for _t, delta in sorted(
        [(s[2], s[6]) for _i, s in submits] + [(s[2], -s[6]) for s in takes]
    ):
        depth += delta
        peak = max(peak, depth)
    m["streaming.ingest.queue_depth_max"] = float(peak)
    ingest = phase.metrics.get("ingest") or {}
    wal = ingest.get("wal") or {}
    m["streaming.ingest.shed"] = float(ingest.get("shed", 0))
    if wal.get("appended"):
        m["streaming.wal.fsyncs_per_kevent"] = wal["fsyncs"] * 1000.0 / wal["appended"]
        m["streaming.wal.bytes_per_event"] = phase.wal_bytes / wal["appended"]
    folds: List[Tuple[int, int]] = []
    for i, s in enumerate(spans):
        if s[0] == "streaming.updater.run_once" and s[6]:  # produced a generation
            waited = max(
                (c[2] for c in takes if c[3] == i), default=s[1]
            )  # the fold starts when its batch has been taken
            folds.append((waited, s[2]))
    m["streaming.updater.fold_s"] = _mean([b - a for a, b in folds]) / 1e9
    updater = phase.metrics.get("updater") or {}
    switch = updater.get("switch") or {}
    m["streaming.updater.generations"] = float(updater.get("generations", 0))
    if updater.get("generations"):
        m["streaming.updater.events_per_generation"] = (
            updater["events_applied"] / updater["generations"]
        )
    fold_windows = [(to_client_s(a), to_client_s(b)) for a, b in folds]
    inside: List[float] = []
    outside: List[float] = []
    for s in ok_reads:
        in_fold = any(a <= s.due < b for a, b in fold_windows)
        (inside if in_fold else outside).append(s.latency_ms)
    if inside and outside:
        m["streaming.updater.read_p50_inflation"] = median(inside) / median(outside)
    m["core.incremental.advance_s"] = _mean(durations("core.incremental.advance", spans)) / 1e9
    m["streaming.rollout.swap_s"] = _mean(durations("streaming.rollout.swap", spans)) / 1e9
    m["streaming.rollout.probes"] = float(switch.get("probes", 0))
    m["streaming.rollout.rollbacks"] = float(switch.get("rollbacks", 0))

    # edge counters and the process
    edge = phase.metrics.get("edge") or {}
    m["api.aio.hedges_launched"] = float((edge.get("hedges") or {}).get("launched", 0))
    m["api.aio.hedges_won"] = float((edge.get("hedges") or {}).get("won", 0))
    coalescer = edge.get("coalescer") or {}
    if coalescer.get("batches"):
        m["api.aio.coalesce_events_per_flush"] = coalescer["events"] / coalescer["batches"]
    m["api.aio.server_start_s"] = setup.server_start_s
    m["server.rss_mb_peak"] = phase.rss_peak_mb
    m["server.cpu_user_s"] = phase.cpu_hi[0] - phase.cpu_lo[0]
    m["server.cpu_sys_s"] = phase.cpu_hi[1] - phase.cpu_lo[1]
    m.update(write_side_metrics(phase))
    return m
