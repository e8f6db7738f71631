"""Seeded inputs of the four workloads.

Everything the server receives is built here from
``generate_marketplace(PROFILES[profile].with_seed(seed))`` and a numpy
generator seeded with the same ``--seed``; the program only ever sees
the requests. ``sha256`` covers every request byte and due time, so two
commits can be shown to have been sent identical inputs.

The generators are the benchmark's own on purpose: the repository's
``repro.serving.replay.build_workload`` may change in a later PR, and a
benchmark whose inputs move with the code it measures compares nothing.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

#: One scheduled request: seconds after the phase starts at which it is
#: due, its kind ("read" or "write"), the raw HTTP/1.1 bytes, and the
#: decoded JSON payload (kept to rebuild the request for the answer check).
Request = Tuple[float, str, bytes, Dict[str, Any]]

#: Share of the timed phase that is sent before it, to warm caches, the
#: adaptive hedge delay and the connections; those requests are not measured.
WARMUP_SHARE = 0.10

ZIPF_S = 1.1
K = 5
BATCH_QUERIES = 64

#: Length of the timed phase when ``--seconds`` is not given: what the
#: committed baselines use. The driver of ``BENCHMARK.json`` passes its
#: own, shorter ``run_seconds``; nothing else about a workload changes
#: with it (but ``WorkloadSpec.fits``), and compare.py refuses two ledgers
#: of different lengths.
E2E_SECONDS = 30.0
TRACED_SECONDS = 20.0


@dataclass(frozen=True)
class WorkloadSpec:
    """What one workload runs against and how hard it is driven."""

    name: str
    why: str
    profile: str
    #: "snapshot" (serve-http --load), "cluster" (--cluster-dir, 4
    #: shards) or "ingest" (--load with the write path on).
    backend: str
    #: Complete set-ups per run; setup_s is the median over them. One
    #: where the base fit alone takes five seconds or more.
    setup_repeats: int
    #: Requests per second over both connections, reads then writes.
    read_rate: float
    write_rate: float
    #: "hot" (Zipf over a small set of strings), "cold" (never-repeating
    #: single searches) or "cold-batch" (never-repeating batches of 64).
    read_shape: str
    #: A read must be answered within this many ms of its due time.
    slo_ms: float
    #: The fit workload's timed phase: one fit per this many seconds of
    #: ``--seconds``, at least one (two in a 30 s end-to-end phase, one in
    #: a 20 s traced one). 0 = only the base fit of the set-up.
    seconds_per_fit: float = 0.0

    def fits(self, seconds: float) -> int:
        """How many times a run of ``seconds`` fits its data."""
        return max(1, int(seconds // self.seconds_per_fit)) if self.seconds_per_fit else 1


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="fit-xlarge",
            why="Batch fit at 4000 entities, where the super-linear stages "
                "dominate; then cold single searches against that large index.",
            profile="xlarge", backend="snapshot", setup_repeats=1,
            read_rate=200.0, write_rate=0.0, read_shape="cold", slo_ms=10.0,
            seconds_per_fit=15.0,
        ),
        WorkloadSpec(
            name="read-hot",
            why="Zipf reads over a set that fits every cache: time goes to "
                "edge, codecs, middleware and cache, the engine is idle.",
            profile="large", backend="snapshot", setup_repeats=1,
            read_rate=400.0, write_rate=0.0, read_shape="hot", slo_ms=10.0,
        ),
        WorkloadSpec(
            name="read-cold-batch",
            why="Never-repeating batches of 64 on a 4-shard cluster: caches "
                "are bypassed, router, shard probes, BM25 and encoding dominate.",
            profile="large", backend="cluster", setup_repeats=1,
            read_rate=30.0, write_rate=0.0, read_shape="cold-batch", slo_ms=25.0,
        ),
        WorkloadSpec(
            name="mixed-ingest",
            why="Hot reads beside single-event writes: WAL, refit, snapshot "
                "save and swap share one interpreter lock with the reads.",
            profile="small", backend="ingest", setup_repeats=3,
            read_rate=150.0, write_rate=20.0, read_shape="hot", slo_ms=10.0,
        ),
    )
}

#: After the timed phase of an ingest workload: this many events, posted
#: as this many batches, timed until the updater has applied the last.
DRAIN_EVENTS = 320
DRAIN_BATCHES = 5


@dataclass
class Inputs:
    #: One schedule per connection, each sorted by due time.
    schedules: List[List[Request]]
    #: Raw batched-ingest requests of the drain phase (ingest workloads).
    drain: List[bytes] = field(default_factory=list)
    sha256: str = ""
    n_distinct_reads: int = 0


def http_request(method: str, path: str, payload: Any = None) -> bytes:
    """Raw keep-alive HTTP/1.1 request bytes for the async edge."""
    if payload is None:
        return f"{method} {path} HTTP/1.1\r\nHost: ledger\r\n\r\n".encode("ascii")
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: ledger\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


def hot_strings(texts: Sequence[str]) -> List[str]:
    """Four spellings of every query that tokenize alike: distinct cache
    keys at the gateway, one key in the engine."""
    out: List[str] = []
    for text in texts:
        out.extend((text, text.upper(), text + " !", "? " + text))
    return out


def zipf_draws(rng: np.random.Generator, n_items: int, n_draws: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n_items + 1) ** ZIPF_S
    return rng.choice(n_items, size=n_draws, p=weights / weights.sum())


def cold_query(texts: Sequence[str], rng: np.random.Generator, serial: int) -> str:
    """A string never sent before: three in four are a real query plus a
    token of their own (so they retrieve), one in four matches nothing."""
    if serial % 4 == 3:
        return f"zq{serial} zx{serial}"
    return f"{texts[int(rng.integers(len(texts)))]} zq{serial}"


def _read_requests(
    spec: WorkloadSpec, texts: Sequence[str], rng: np.random.Generator, n: int
) -> Tuple[List[Tuple[str, bytes, Dict[str, Any]]], int]:
    if spec.read_shape == "hot":
        strings = hot_strings(texts)
        order = rng.permutation(len(strings))  # which string is rank 1 depends on the seed
        payloads = [
            {"query": strings[order[i]], "k": K}
            for i in zipf_draws(rng, len(strings), n)
        ]
        path, distinct = "/v1/search", len(strings)
    elif spec.read_shape == "cold":
        payloads = [{"query": cold_query(texts, rng, i), "k": K} for i in range(n)]
        path, distinct = "/v1/search", n
    else:
        payloads = [
            {
                "queries": [
                    cold_query(texts, rng, i * BATCH_QUERIES + j)
                    for j in range(BATCH_QUERIES)
                ],
                "k": K,
                "kind": "search",
            }
            for i in range(n)
        ]
        path, distinct = "/v1/batch", n * BATCH_QUERIES
    return [("read", http_request("POST", path, p), p) for p in payloads], distinct


def event_payloads(market, rng: np.random.Generator, n: int) -> List[Dict[str, Any]]:
    """Click events drawn from the generated log, stamped as the day
    after it ends (live traffic arriving on top of the fitted window)."""
    events = market.query_log.events
    day = int(market.query_log.days()[-1]) + 1
    out = []
    for i in rng.integers(len(events), size=n):
        e = events[int(i)]
        out.append(
            {
                "day": day,
                "user_id": int(e.user_id),
                "query_id": int(e.query_id),
                "clicked": [int(c) for c in e.clicked_entity_ids],
            }
        )
    return out


def _spread(
    requests: List[Tuple[str, bytes, Dict[str, Any]]], rate: float, n_conns: int
) -> List[List[Request]]:
    """Request i is due at i/rate; consecutive requests alternate connections."""
    schedules: List[List[Request]] = [[] for _ in range(n_conns)]
    for i, (kind, raw, payload) in enumerate(requests):
        schedules[i % n_conns].append((i / rate, kind, raw, payload))
    return schedules


def build_inputs(spec: WorkloadSpec, market, seed: int, seconds: float) -> Inputs:
    """The request streams of one run: warm-up plus timed phase."""
    rng = np.random.default_rng(seed)
    texts = [q.text for q in market.query_log.queries]
    span_s = seconds * (1.0 + WARMUP_SHARE)
    reads, distinct = _read_requests(
        spec, texts, rng, int(round(spec.read_rate * span_s))
    )
    inputs = Inputs(schedules=[], n_distinct_reads=distinct)
    if spec.write_rate > 0:
        # Reads on one connection, writes on the other, as two clients would.
        writes = [
            ("write", http_request("POST", "/v1/ingest", p), p)
            for p in event_payloads(market, rng, int(round(spec.write_rate * span_s)))
        ]
        inputs.schedules = _spread(reads, spec.read_rate, 1) + _spread(
            writes, spec.write_rate, 1
        )
        drain = event_payloads(market, rng, DRAIN_EVENTS)
        per = DRAIN_EVENTS // DRAIN_BATCHES
        inputs.drain = [
            http_request("POST", "/v1/ingest", {"events": drain[i:i + per]})
            for i in range(0, DRAIN_EVENTS, per)
        ]
    else:
        inputs.schedules = _spread(reads, spec.read_rate, 2)
    inputs.sha256 = inputs_sha256(inputs)
    return inputs


def inputs_sha256(inputs: Inputs) -> str:
    digest = hashlib.sha256()
    for schedule in inputs.schedules:
        digest.update(struct.pack("<I", len(schedule)))
        for due, kind, raw, _payload in schedule:
            digest.update(struct.pack("<d", due))
            digest.update(kind.encode("ascii"))
            digest.update(raw)
    for raw in inputs.drain:
        digest.update(raw)
    return digest.hexdigest()
