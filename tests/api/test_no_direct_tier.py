"""Grep-enforced acceptance: removed things stay removed.

One data table, :data:`REMOVALS`, lists every removal as a row: its
name, the pattern that finds it, the paths scanned for it, and the
files exempt from it. Each (row, scanned file) pair is one test id, so a
failure names both the removal and the file, and each scanned file is
read once per session however many rows scan it. The rows:

* ``direct-tier-construction`` — ``examples/``, ``cli.py`` and
  ``benchmarks/`` go through the
  :mod:`repro.api` adapters: no ``ShoalService(...)`` or
  ``ClusterRouter(...)`` construction (including the ``from_*``
  factory classmethods). Engine *access* through an adapter
  (``backend.service`` / ``backend.router``) is fine.
* ``legacy-delegate-calls`` — the deprecated thin delegates
  (``search_topics`` & co.) are gone from the backends, so a call site
  in the same frontends would be dead code or a raw-engine dependency.
* ``bare-metrics-path`` — the unversioned ``/metrics`` alias is gone;
  every scrape names ``/v1/metrics``.
* ``second-edge-or-chain`` — the threaded edge and second dispatch
  chain (``ShoalHttpServer``, ``_GatewayHandler``, ``handle_observed``,
  ``--edge``): there is one edge and one chain.
* ``second-cache-tier-or-replicas`` — the inner cache tiers and the
  in-process replicas that held them (``n_replicas``, ``--replicas``,
  ``replica_request_counts``, ``front_cache``, ``_engine_cache_size``,
  ``invalidate_caches``): ``CacheMiddleware`` is the one result cache.
* ``second-attempt`` — request hedging and what served it (any
  ``hedg…`` word, ``RequestContext.child``, ``.child(tags=``,
  ``edge.attempt``): a read is one attempt under one context.
* ``second-write-path-configuration`` — the ``block`` /
  ``drop_oldest`` admission policies and their knobs, the switch's
  ``rollback_on_failure``, the coalescer's ``coalesce_max_*``, the six
  ``serve-http`` tuning flags that became constants, and the
  maintainer-owned read tiers (``IncrementalShoal.service`` /
  ``backend`` / ``cluster``): a generation reaches readers only through
  a ``GenerationSwitch``.
* ``sharded-write-side`` — ``shard_fingerprint``, ``rebuilt_shards``,
  ``TargetOutcome``, ``target_generations``, ``ClusterRouter.refresh``,
  ``Follower(..., n_shards=`` and ``serve-follower ... --shards``: a
  switch swaps one single-service tier, a cluster is built once and
  never refreshed, and a follower is a whole-model replica.
* ``write-only-durable-formats`` — the snapshot-delta feed
  (``encode_delta`` & co., ``gen-NNNNN.delta`` stats, the feed's
  ``base_fingerprint``) and the incremental checkpoint
  (``IncrementalShoal.resume``, ``save_checkpoint`` & co.): every file
  the system writes has a reader, and a maintainer restarts one way,
  ``IncrementalShoal.from_model`` plus a WAL replay. The WAL's own
  ``read_checkpoint`` / ``write_checkpoint`` sidecar stays.
* ``second-bm25-scorer`` — BM25's per-document tf dicts and bare
  posting lists (``_doc_freqs``, ``_postings``), its ``candidates``
  pass, and the tokenizer's ``lowercase`` switch: one posting map of
  precomputed terms is the only scorer, and text is always lowercased.
* ``regenerated-world`` — ``generate_marketplace`` and ``PROFILES``
  in ``replication/``, ``streaming/`` and ``api/``: a primary restart
  and a follower start from the snapshot's files (model, click window,
  categories, probes) plus the WAL, never from the synthetic world.
* ``query-log-store`` — the per-event query-log store and its column
  tables (``QueryLogStore``, ``ColumnarTable``, ``seed_log``): the
  window is per-day click counts (``ClickWindow``), carried by the
  model and persisted as ``window.npz``.
* ``full-model-on-the-read-path`` — ``load_model``, the shard
  placeholder ``_empty_embeddings``, the category-map setters
  ``set_entity_categories`` / ``with_entity_categories`` and
  ``.service.model`` in the read and swap modules (``core/serving.py``,
  ``serving/router.py``, ``serving/sharding.py``, ``api/backends.py``,
  ``streaming/rollout.py``): a read tier holds a ``ServingModel``.
* ``service-model-accessor`` — ``.service.model`` anywhere in ``src/``,
  ``examples/`` or ``scripts/``: a service exposes no fitted model, so a
  fit-side caller loads the full model itself.
* ``read-hop-and-peek`` — the edge's cache peek (``Gateway.cached``,
  ``CacheMiddleware.holds``, the edge's ``_cached``) and its executor
  read branch's ``_silence`` in ``src/repro/api``: search, recommend
  and batch run the gateway chain on the event loop, hit or miss.
* ``segment-replay`` — WAL segment shipping and the follower's replay
  of it (``_FeedPipe``, ``_WalView``, ``SegmentShipper``,
  ``SEGMENTS.json``, ``closed_segments``, ``.roll(``, ``--workdir``):
  the feed ships each generation's serving files and a follower loads
  them.
* ``follower-folds`` — any import of ``repro.core.incremental`` or
  ``repro.streaming.updater`` under ``src/repro/replication/``: only
  the primary folds events.
* ``per-span-tracer-state`` — the tracer's open-trace buckets and span
  handles (``_TraceBucket``, ``_SpanHandle``, ``_evict_stale_locked``),
  the per-span context variable (``_CURRENT_SPAN``, ``current_span()``)
  and a ``parent=`` keyword to ``traced`` / ``.span``: a span is a
  record on its request's context, and its parent is an index there.
* ``request-cancel-event`` — ``threading.Event`` in
  ``src/repro/api/context.py``: nothing waits on a request's
  cancellation, so the token is a plain flag.
* ``second-traffic-harness`` — the in-package load generator and the
  command that drove it (``TrafficReplayer``, ``ReplayReport``,
  ``WorkloadConfig``, ``WORKLOAD_PROFILES``, ``build_workload``,
  ``build_write_workload``, ``repro.serving.replay``, ``cli replay``)
  in ``src/``, ``scripts/``, ``examples/``, ``benchmarks/``, the CI
  workflows and the README: load comes from the benchmark ledger's
  generators. ``benchmarks/ledger/`` is exempt; it is the benchmark's
  own and says why it forked.
* ``second-fold-command`` — ``cli ingest`` (``_cmd_ingest`` and its
  parser) in ``src/``, ``scripts/``, ``examples/``, the CI workflows and
  the README: it generated its own world and folded in its own
  interpreter; ``serve-http --ingest-wal`` is the one write path.
* ``fold-in-the-serving-process`` — ``IncrementalShoal``,
  ``StreamingUpdater``, ``load_model``, ``take_batch`` and the
  updater's ``_state_lock`` in the serving process's modules
  (``cli.py``, ``api/``, ``streaming/fold.py``, ``streaming/ingest.py``,
  ``streaming/rollout.py``): the server spawns the fold process and
  only loads, swaps and ships what it writes.

An exemption names a file, or a directory with a trailing ``/``.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import FrozenSet, List, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Direct-tier construction: the class name immediately called or used
#: through a factory classmethod.
FORBIDDEN = re.compile(
    r"\b(ShoalService|ClusterRouter)[ \t]*(\(|\.from_\w+[ \t]*\()"
)

#: The removed delegate names, as method calls on anything.
LEGACY_CALLS = re.compile(
    r"\.(search_topics|search_topics_batch|"
    r"recommend_entities_for_query|recommend_batch)[ \t]*\("
)

FRONTEND_PATHS = [
    "examples",
    "benchmarks",
    "src/repro/cli.py",
]

#: The unversioned metrics path, removed after its one-release
#: deprecation. Matches ``/metrics`` unless it is the tail of
#: ``/v1/metrics`` or of a prose word-chain like ``analytics/metrics``
#: (URL offenders end in a digit, quote, brace, or whitespace).
BARE_METRICS = re.compile(r"(?<![A-Za-z])(?<!/v1)/metrics\b")

#: Everything that speaks HTTP to a served gateway: frontends plus the
#: operational scripts, CI workflows, and the README's curl examples.
METRICS_SCAN_PATHS = FRONTEND_PATHS + [
    "scripts",
    ".github/workflows",
    "README.md",
    "src/repro/api",
]

#: The threaded edge, the observed-chain handler variant, and the flag
#: that selected between edges — all removed.
REMOVED_EDGE = re.compile(
    r"\b(ShoalHttpServer|_GatewayHandler|handle_observed)\b|--edge\b"
)

REMOVED_EDGE_SCAN_PATHS = [
    "src",
    "scripts",
    "examples",
    ".github",
    "README.md",
]

#: The engine query cache's and router front cache's knobs and the
#: replica machinery — all removed with the tiers they configured.
REMOVED_CACHE_TIERS = re.compile(
    r"n_replicas|--replicas|replica_request_counts|front_cache|"
    r"_engine_cache_size|invalidate_caches"
)

#: Request hedging, the per-attempt child contexts and the per-attempt
#: span name — all removed.
REMOVED_HEDGING = re.compile(
    r"hedg|RequestContext\.child|\.child\(tags=|edge\.attempt",
    re.IGNORECASE,
)

#: The write path's removed policies, knobs and flags, and the read
#: tiers the maintainer used to own — all removed.
REMOVED_WRITE_PATH_CONFIGS = re.compile(
    r"drop_oldest|block_timeout_s|OVERFLOW_POLICIES|rollback_on_failure|"
    r"coalesce_max_\w+|--ingest-(queue|overflow|batch-events|batch-age-s)\b|"
    r"--coalesce-(events|delay-ms)\b|"
    r"IncrementalShoal\.(service|backend|cluster)\b|"
    r"\.(service|backend|cluster)\("
)

WRITE_PATH_SCAN_PATHS = [
    "src",
    "scripts",
    "examples",
    "benchmarks",
    "README.md",
]

#: Frontends allowed to time the raw engine *behind* an adapter
#: (reached via ``backend.service``, never constructed) — the only
#: sanctioned use of the engine method names outside the adapters.
LEGACY_CALL_EXEMPT = frozenset({
    "benchmarks/test_bench_api.py",
    "benchmarks/test_bench_serving.py",
    "benchmarks/check_regressions.py",
})


#: The sharded tier's write side and the sharded follower — all removed:
#: a switch swaps one single-service tier, a cluster is built once and
#: never refreshed, and a follower is a whole-model replica. The last
#: two alternatives span lines: a keyword argument anywhere inside a
#: ``Follower(`` call, and ``--shards`` anywhere in a ``serve-follower``
#: command continued with backslashes.
REMOVED_SHARDED_WRITE_SIDE = re.compile(
    r"\b(shard_fingerprint|rebuilt_shards|TargetOutcome|target_generations)\b|"
    r"ClusterRouter\.refresh\b|router\.refresh\(|"
    r"\bFollower\((?:[^()]|\([^()]*\))*\bn_shards\s*=|"
    r"serve-follower(?:[^\n]|\\\n)*--shards\b"
)

SHARDED_WRITE_SIDE_SCAN_PATHS = [
    "src",
    "scripts",
    "examples",
    "benchmarks",
    ".github",
    "README.md",
]

#: The write-only durable formats — all removed: the snapshot-delta
#: feed nothing read, and the incremental checkpoint nothing restarted
#: from.
REMOVED_WRITE_ONLY_FORMATS = re.compile(
    r"\b(encode_delta|apply_delta|read_delta_header|DeltaCorruption|"
    r"BaseMissing|delta_bytes|full_bytes|base_fingerprint|"
    r"save_checkpoint|load_checkpoint|CheckpointState|CHECKPOINT_KIND)\b|"
    r"repro\.replication\.delta\b|IncrementalShoal\.resume\b|\.resume\(|"
    r"shoal-incremental-checkpoint"
)

#: The second BM25 scorer's structures and the no-op tokenizer switch —
#: all removed.
REMOVED_SECOND_SCORER = re.compile(
    r"\b(_doc_freqs|_postings)\b|\.candidates\(|\bdef candidates\(|"
    r"\blowercase\s*[=:]|\.lowercase\b"
)

#: The synthetic world's generator, banned where a start must read the
#: snapshot instead.
REGENERATED_WORLD = re.compile(r"\b(generate_marketplace|PROFILES)\b")

REGENERATED_WORLD_SCAN_PATHS = [
    "src/repro/replication",
    "src/repro/streaming",
    "src/repro/api",
]

#: The per-event query-log store, its table layer and its seeding call
#: — all removed.
REMOVED_QUERY_LOG_STORE = re.compile(
    r"\b(QueryLogStore\w*|ColumnarTable|seed_log)\b|"
    r"repro\.store\.(querylog|tables)\b"
)

QUERY_LOG_STORE_SCAN_PATHS = ["src", "examples", "scripts"]

#: The fitted model reaching a read tier: its loader, the shard
#: placeholder, the side-car category-map setters and the service's
#: model accessor.
SERVICE_MODEL = r"\.service\.model\b"
FULL_MODEL_ON_READ_PATH = re.compile(
    r"\b(load_model|_empty_embeddings|set_entity_categories|"
    r"with_entity_categories)\b|" + SERVICE_MODEL
)

READ_PATH_MODULES = [
    "src/repro/core/serving.py",
    "src/repro/serving/router.py",
    "src/repro/serving/sharding.py",
    "src/repro/api/backends.py",
    "src/repro/streaming/rollout.py",
]

SERVICE_MODEL_ACCESSOR = re.compile(SERVICE_MODEL)

#: The cache peek that chose between two read paths, and the helper
#: that silenced a read abandoned on a worker — both removed.
REMOVED_READ_HOP = re.compile(
    r"\._?cached\(|\bdef holds\b|\.holds\(|\b_silence\b"
)

#: WAL segment shipping and segment replay — all removed: a follower
#: loads the serving files the primary wrote.
REMOVED_SEGMENT_REPLAY = re.compile(
    r"\b(_FeedPipe|_WalView|SegmentShipper|closed_segments)\b|"
    r"SEGMENTS\.json|\.roll\(|--workdir\b"
)

#: An import that would let the replication package fold events: the
#: maintainer's or the updater's module, directly, by name, or through
#: a package (also inside a parenthesised import list).
FOLLOWER_FOLDS = re.compile(
    r"^[ \t]*(?:from|import)[ \t]+"
    r"repro\.(?:core\.incremental|streaming\.updater)\b|"
    r"^[ \t]*from[ \t]+repro(?:\.core|\.streaming)?[ \t]+import[ \t]+"
    r"(?:\([^()]*|[^\n]*)"
    r"\b(?:incremental|updater|IncrementalShoal|StreamingUpdater)\b",
    re.MULTILINE,
)

#: The tracer's per-span shared state and explicit parenting — all
#: removed: spans are records on their request's context, parented by
#: index, and only the root's close takes the tracer's lock.
REMOVED_SPAN_STATE = re.compile(
    r"\b(_TraceBucket|_SpanHandle|_evict_stale_locked|_CURRENT_SPAN)\b|"
    r"\bcurrent_span\(|"
    r"\b(?:traced|\.span)\((?:[^()]|\([^()]*\))*\bparent\s*="
)

#: A blocking event behind the request's cancellation token — removed:
#: nothing waits on it.
CANCEL_EVENT = re.compile(r"\bthreading\.Event\b")

#: The second traffic generator and the command that drove it — all
#: removed: CI soaks and benches draw their traffic from the ledger's
#: generators.
SECOND_TRAFFIC_HARNESS = re.compile(
    r"\b(TrafficReplayer|ReplayReport|WorkloadConfig|WORKLOAD_PROFILES|"
    r"build_workload|build_write_workload)\b|"
    r"repro\.serving\.replay\b|\bcli replay\b"
)

TRAFFIC_HARNESS_SCAN_PATHS = [
    "src",
    "scripts",
    "examples",
    "benchmarks",
    ".github/workflows",
    "README.md",
]

#: The command that ran a second, in-process fold over its own world.
SECOND_FOLD_COMMAND = re.compile(
    r"\brepro\.cli ingest\b|\bcli ingest\b|\b_cmd_ingest\b|"
    r"add_parser\(\s*[\"']ingest[\"']"
)

#: What the fold needs, kept out of the process that serves reads.
FOLD_STATE = re.compile(
    r"\b(IncrementalShoal|StreamingUpdater|load_model|take_batch|"
    r"_state_lock)\b"
)

SERVING_PROCESS_MODULES = [
    "src/repro/cli.py",
    "src/repro/api",
    "src/repro/streaming/fold.py",
    "src/repro/streaming/ingest.py",
    "src/repro/streaming/rollout.py",
]

#: What a scanned directory contributes (a listed file is always read).
TEXT_SUFFIXES = (".py", ".yml", ".yaml", ".md")


@dataclass(frozen=True)
class Removal:
    """One banned thing: where to look for it and why it is gone."""

    name: str
    pattern: "re.Pattern[str]"
    paths: Tuple[str, ...]
    why: str
    suffixes: Tuple[str, ...] = TEXT_SUFFIXES
    exempt: FrozenSet[str] = frozenset()


#: The guard table: each removal is checked once per scanned file.
REMOVALS = (
    Removal(
        "direct-tier-construction", FORBIDDEN, tuple(FRONTEND_PATHS),
        "direct read-tier construction outside repro/api adapters (use "
        "ServiceBackend/ClusterBackend/open_backend)",
        suffixes=(".py",),
    ),
    Removal(
        "legacy-delegate-calls", LEGACY_CALLS, tuple(FRONTEND_PATHS),
        "legacy delegate call in a frontend (the thin delegates were "
        "removed; build a typed request and call search/recommend/batch)",
        suffixes=(".py",),
        exempt=LEGACY_CALL_EXEMPT,
    ),
    Removal(
        "bare-metrics-path", BARE_METRICS, tuple(METRICS_SCAN_PATHS),
        "unversioned /metrics path (the alias was removed; scrape "
        "/v1/metrics)",
    ),
    Removal(
        "second-edge-or-chain", REMOVED_EDGE, tuple(REMOVED_EDGE_SCAN_PATHS),
        "reference to the removed threaded edge / observed chain "
        "(AsyncShoalServer is the only edge, Middleware.handle the only "
        "handler)",
    ),
    Removal(
        "second-cache-tier-or-replicas", REMOVED_CACHE_TIERS,
        tuple(REMOVED_EDGE_SCAN_PATHS),
        "reference to the removed engine/router caches or replicas "
        "(CacheMiddleware is the one result cache; wrap the backend in a "
        "Gateway)",
    ),
    Removal(
        "second-attempt", REMOVED_HEDGING, tuple(REMOVED_EDGE_SCAN_PATHS),
        "reference to the removed request hedging (a read is one attempt "
        "under the request's own context)",
    ),
    Removal(
        "second-write-path-configuration", REMOVED_WRITE_PATH_CONFIGS,
        tuple(WRITE_PATH_SCAN_PATHS),
        "reference to a removed write-path configuration (the ingest pipe "
        "only sheds, the tuning flags are constants, and only a "
        "GenerationSwitch refreshes a read tier)",
    ),
    Removal(
        "sharded-write-side", REMOVED_SHARDED_WRITE_SIDE,
        tuple(SHARDED_WRITE_SIDE_SCAN_PATHS),
        "reference to the removed sharded write side (a switch swaps one "
        "single-service tier, a cluster is built once and never "
        "refreshed, and a follower is a whole-model replica)",
    ),
    Removal(
        "write-only-durable-formats", REMOVED_WRITE_ONLY_FORMATS,
        tuple(SHARDED_WRITE_SIDE_SCAN_PATHS),
        "reference to a removed write-only durable format (the feed ships "
        "generation serving files and their index, and a maintainer "
        "restarts via IncrementalShoal.from_model plus a WAL replay)",
    ),
    Removal(
        "second-bm25-scorer", REMOVED_SECOND_SCORER,
        tuple(WRITE_PATH_SCAN_PATHS),
        "reference to a removed BM25 scorer structure or tokenizer switch "
        "(BM25 keeps one token -> {doc: term} map; text is always "
        "lowercased)",
    ),
    Removal(
        "regenerated-world", REGENERATED_WORLD,
        tuple(REGENERATED_WORLD_SCAN_PATHS),
        "the synthetic world regenerated on a serving or replication path "
        "(a restart reads the snapshot's model, window.npz, categories "
        "and probes, then replays the WAL)",
        suffixes=(".py",),
    ),
    Removal(
        "query-log-store", REMOVED_QUERY_LOG_STORE,
        tuple(QUERY_LOG_STORE_SCAN_PATHS),
        "reference to the removed query-log store (the window is "
        "ClickWindow's per-day click counts; the model carries it)",
    ),
    Removal(
        "full-model-on-the-read-path", FULL_MODEL_ON_READ_PATH,
        tuple(READ_PATH_MODULES),
        "the fitted model or a side-car category map on a read or swap "
        "path (a read tier is built from one ServingModel: "
        "ShoalModel.serving() or load_serving)",
    ),
    Removal(
        "service-model-accessor", SERVICE_MODEL_ACCESSOR,
        tuple(QUERY_LOG_STORE_SCAN_PATHS),
        "the removed ShoalService.model accessor (a fit-side caller "
        "loads the full model itself with load_model)",
    ),
    Removal(
        "read-hop-and-peek", REMOVED_READ_HOP, ("src/repro/api",),
        "reference to the removed cache peek or executor read branch "
        "(search, recommend and batch run the gateway chain on the edge's "
        "loop; only analytics, GETs and the ingest flush take a worker)",
        suffixes=(".py",),
    ),
    Removal(
        "segment-replay", REMOVED_SEGMENT_REPLAY,
        tuple(SHARDED_WRITE_SIDE_SCAN_PATHS),
        "reference to the removed WAL segment shipping or segment replay "
        "(the feed ships each generation's serving files; a follower "
        "verifies their fingerprint and loads them)",
    ),
    Removal(
        "follower-folds", FOLLOWER_FOLDS, ("src/repro/replication",),
        "the replication package imports the maintainer or the updater "
        "(only the primary folds events; followers load its generations)",
        suffixes=(".py",),
    ),
    Removal(
        "per-span-tracer-state", REMOVED_SPAN_STATE,
        tuple(WRITE_PATH_SCAN_PATHS),
        "reference to the removed per-span tracer state or explicit span "
        "parenting (a span is a record on its RequestContext; only the "
        "root's close takes the tracer lock)",
    ),
    Removal(
        "request-cancel-event", CANCEL_EVENT, ("src/repro/api/context.py",),
        "a threading.Event behind the request's cancellation token "
        "(nothing waits on it; the token is a flag plus a reason)",
        suffixes=(".py",),
    ),
    Removal(
        "second-traffic-harness", SECOND_TRAFFIC_HARNESS,
        tuple(TRAFFIC_HARNESS_SCAN_PATHS),
        "reference to the removed in-package traffic replayer or 'cli "
        "replay' (CI soaks and benches draw their load from "
        "benchmarks/ledger/workloads.py: hot_strings, zipf_draws, "
        "event_payloads)",
        exempt=frozenset({"benchmarks/ledger/"}),
    ),
    Removal(
        "second-fold-command", SECOND_FOLD_COMMAND,
        ("src", "scripts", "examples", ".github/workflows", "README.md"),
        "reference to the removed 'cli ingest' (serve-http --ingest-wal "
        "with POST /v1/ingest is the one write path)",
    ),
    Removal(
        "fold-in-the-serving-process", FOLD_STATE,
        tuple(SERVING_PROCESS_MODULES),
        "fold state in a serving-process module (the fold runs in the "
        "child FoldProcess spawns; the server loads the generations it "
        "writes)",
        suffixes=(".py",),
    ),
)

ROW = {removal.name: removal for removal in REMOVALS}


@functools.lru_cache(maxsize=None)
def _text(path: Path) -> str:
    """Each scanned file is read once per session, whatever scans it."""
    return path.read_text()


def _scan_files(removal: Removal):
    for entry in removal.paths:
        path = REPO_ROOT / entry
        if path.is_file():
            yield path
        elif path.is_dir():
            yield from sorted(
                p
                for p in path.rglob("*")
                if p.is_file() and p.suffix in removal.suffixes
            )


def _exempt(removal: Removal, rel: str) -> bool:
    return any(
        rel.startswith(e) if e.endswith("/") else rel == e
        for e in removal.exempt
    )


def _scan_pairs() -> List[Tuple[Removal, str]]:
    """Every (row, repo-relative file) the table checks, exemptions out."""
    return [
        (removal, rel)
        for removal in REMOVALS
        for rel in (
            str(path.relative_to(REPO_ROOT)) for path in _scan_files(removal)
        )
        if not _exempt(removal, rel)
    ]


SCAN_PAIRS = _scan_pairs()


def _offending(removal: Removal, rel: str) -> List[str]:
    """``file:line: text`` of every match; a pattern may span lines."""
    text = _text(REPO_ROOT / rel)
    hits = []
    for match in removal.pattern.finditer(text):
        lineno = text.count("\n", 0, match.start()) + 1
        line = text.splitlines()[lineno - 1]
        hits.append(f"{rel}:{lineno}: {line.strip()}")
    return hits


@pytest.mark.parametrize(
    "removal, rel",
    SCAN_PAIRS,
    ids=[f"{removal.name}-{rel}" for removal, rel in SCAN_PAIRS],
)
def test_removed_thing_is_gone(removal, rel):
    offending = _offending(removal, rel)
    assert not offending, removal.why + ":\n" + "\n".join(offending)


def test_every_row_scans_something():
    """A row whose paths all vanished would collect no ids and pass."""
    scanned = {removal.name for removal, _ in SCAN_PAIRS}
    assert scanned == set(ROW)


def test_one_result_cache_by_construction():
    """``LRUCache(`` is built at one site (``CacheMiddleware``), and the
    engine tiers do not even import the cache module."""
    src = REPO_ROOT / "src"
    sites = [
        str(p.relative_to(REPO_ROOT))
        for p in sorted(src.rglob("*.py"))
        for line in p.read_text().splitlines()
        if re.search(r"\bLRUCache\(", line)
    ]
    assert sites == ["src/repro/api/middleware.py"]
    engine_tiers = sorted((src / "repro" / "core").glob("*.py")) + [
        src / "repro" / "serving" / "router.py"
    ]
    for path in engine_tiers:
        assert "repro.api.cache" not in path.read_text(), path


def test_the_guard_itself_still_bites():
    """The regexes must keep matching the patterns they exist to ban."""
    for snippet in (
        "service = ShoalService(model)",
        "svc = ShoalService.from_snapshot(d)",
        "router = ClusterRouter(shard_set, n_replicas=2)",
        "router = ClusterRouter.from_model(model, 4)",
        "warm = ClusterRouter.from_snapshot(tmp)",
    ):
        assert FORBIDDEN.search(snippet), snippet
    for snippet in (
        "backend = ServiceBackend.from_model(model)",
        "engine = backend.service",
        "router = backend.router",
        "from repro.core.serving import ShoalService",
    ):
        assert not FORBIDDEN.search(snippet), snippet
    for snippet in (
        "backend.search_topics(q, 5)",
        "client.search_topics_batch(queries, k=5)",
        "gateway.recommend_entities_for_query(q, 8)",
        "target.recommend_batch(queries)",
    ):
        assert LEGACY_CALLS.search(snippet), snippet
    for snippet in (
        "backend.search(SearchRequest(query=q, k=5))",
        "response = gateway.batch(request)",
        "# search_topics is engine-only now",
    ):
        assert not LEGACY_CALLS.search(snippet), snippet
    for snippet in (
        'urlopen(f"{url}/metrics")',
        "curl -s localhost:8080/metrics",
        '"GET /metrics" stays as an alias',
    ):
        assert BARE_METRICS.search(snippet), snippet
    for snippet in (
        'urlopen(f"{url}/v1/metrics")',
        "curl -s localhost:8080/v1/metrics",
        "| `GET /v1/metrics` | one JSON scrape point |",
    ):
        assert not BARE_METRICS.search(snippet), snippet
    for snippet in (
        "server = ShoalHttpServer(gateway, port=0)",
        "class _GatewayHandler(BaseHTTPRequestHandler):",
        "def handle_observed(self, request, call_next):",
        "serve-http --edge thread --port 8471",
    ):
        assert REMOVED_EDGE.search(snippet), snippet
    for snippet in (
        "server = AsyncShoalServer(gateway, port=0)",
        "def handle(self, request, call_next):",
        "async-edge-soak:",
    ):
        assert not REMOVED_EDGE.search(snippet), snippet
    for snippet in (
        "ClusterBackend.from_model(model, 4, n_replicas=2)",
        "serve-http --cluster-dir DIR --replicas 2",
        "counts = shard.replica_request_counts()",
        "router.front_cache_stats().hits",
        "cache_size=_engine_cache_size(args)",
        "router.invalidate_caches()",
    ):
        assert REMOVED_CACHE_TIERS.search(snippet), snippet
    for snippet in (
        "ClusterBackend.from_model(model, 4)",
        "serve-http --cluster-dir DIR --cache-size 0",
        "gateway.invalidate_cache()",
        "a WAL-mode SQLite replica of the event stream",
    ):
        assert not REMOVED_CACHE_TIERS.search(snippet), snippet
    for snippet in (
        "serve-http --hedge-after-ms 0",
        "* **Hedging.** If a read has not answered after a delay",
        "self._stats.hedges_launched += 1",
        "primary_ctx = RequestContext.child(ctx)",
        'hedge_ctx = ctx.child(tags={"attempt": "hedge"})',
        '"edge.attempt",',
    ):
        assert REMOVED_HEDGING.search(snippet), snippet
    for snippet in (
        "serve-http --deadline-ms 250",
        'with traced("edge.dispatch", context=ctx, parent=root.span):',
        "for child in by_parent.get(span['span_id'], []):",
        'ctx.cancel("deadline expired")',
        "self._stats.deadline_expired += 1",
    ):
        assert not REMOVED_HEDGING.search(snippet), snippet
    for snippet in (
        'IngestPipe(wal, max_queue=8192, overflow="drop_oldest")',
        "IngestPipe(wal, overflow=\"block\", block_timeout_s=5.0)",
        "from repro.streaming.ingest import OVERFLOW_POLICIES",
        "GenerationSwitch(rollback_on_failure=False)",
        "AsyncShoalServer(gateway, coalesce_max_events=64)",
        "serve-http --coalesce-events 64",
        "serve-http --coalesce-delay-ms 5",
        "serve-http --ingest-queue 4096 --ingest-overflow shed",
        "serve-http --ingest-batch-events 64 --ingest-batch-age-s 2",
        "`IncrementalShoal.cluster()` returns a persistent router",
        "backend = inc.backend()",
        "svc = maintainer.service()",
        "router = inc.cluster(n_shards=2)",
    ):
        assert REMOVED_WRITE_PATH_CONFIGS.search(snippet), snippet
    for snippet in (
        "pipe = IngestPipe(wal, max_queue=8192)",
        "serve-http --ingest-wal DIR --ingest-fsync always",
        "engine = backend.service",
        "router = backend.router",
        "ServiceBackend.from_model(inc.model, entity_categories=cats)",
        "m[\"api.aio.coalesce_events_per_flush\"] = events / batches",
        "switch = GenerationSwitch(probe_queries=probes, baseline=base)",
        "serve-cluster --shards 2",
    ):
        assert not REMOVED_WRITE_PATH_CONFIGS.search(snippet), snippet
    for snippet in (
        "from repro.serving import shard_fingerprint",
        "assert report.outcomes[0].rebuilt_shards == ()",
        "outcomes: Tuple[TargetOutcome, ...]",
        'gens = switch.stats()["target_generations"]',
        "`ClusterRouter.refresh` rebuilds only changed shards",
        "rebuilt = router.refresh(model, categories)",
        "self._router.refresh(generation.model)",
        "Follower(feed, work, follower_id='f', n_shards=4)",
        "follower = Follower(\n    args.feed,\n    workdir,\n"
        "    n_shards=args.shards,\n)",
        "Follower(Path(feed), Path(work), n_shards=2)",
        "serve-follower --feed /tmp/feed --shards 2",
        "python -m repro.cli serve-follower --feed /tmp/f \\\n"
        "  --id ci-f2 --shards 2 --port 0",
    ):
        assert REMOVED_SHARDED_WRITE_SIDE.search(snippet), snippet
    for snippet in (
        "serve-cluster --shards 2",
        "python -m repro.cli serve-cluster --profile small --shards 4",
        "python -m repro.cli serve-follower --feed /tmp/feed --port 8081\n"
        "python -m repro.cli serve-cluster --shards 4",
        "ClusterBackend.from_model(model, 4)",
        "ShardPlan(n_shards=n_shards, assignments=tuple(assignments))",
        "follower = Follower(args.feed, workdir, follower_id=args.id)",
        "backend.service.refresh(generation.model)",
        "snapshot_fingerprint(generation.snapshot_dir)",
        "FollowerBackend(self, self._inner)",
    ):
        assert not REMOVED_SHARDED_WRITE_SIDE.search(snippet), snippet
    for snippet in (
        "from repro.replication import encode_delta",
        "header = apply_delta(delta, out, base_dir=base)",
        "header = read_delta_header(path)",
        "except DeltaCorruption:",
        "except BaseMissing:",
        "from repro.replication.delta import snapshot_fingerprint",
        "f\"{stats['delta_bytes']}B\"",
        "(`segments_shipped`, `delta_bytes` vs `full_bytes`)",
        'manifest["base_fingerprint"] = fp',
        "`IncrementalShoal.resume(dir)` restores maintenance",
        "resumed = IncrementalShoal.resume(ckpt)",
        "inc = cls.resume(directory)",
        "from repro.store.persistence import save_checkpoint",
        "state = load_checkpoint(directory)",
        "state = CheckpointState(config=config)",
        "check_manifest(manifest, CHECKPOINT_KIND)",
        'kind = "shoal-incremental-checkpoint"',
    ):
        assert REMOVED_WRITE_ONLY_FORMATS.search(snippet), snippet
    for snippet in (
        "from repro.streaming.wal import read_checkpoint, write_checkpoint",
        "write_checkpoint(self._wal.directory, {\"applied_seq\": seq})",
        "self._checkpoint()",
        "payload = json.loads(tailer.checkpoint_path.read_text())",
        "fingerprint = snapshot_fingerprint(generation.snapshot_dir)",
        "inc = IncrementalShoal.from_model(model, entity_categories=cats)",
        "recovered = updater.recover()",
        'self._stats["segment_bytes"] += len(raw)',
        "check_manifest(manifest, MODEL_SNAPSHOT_KIND)",
        "# Two snapshots -> at least one delta row showing 50 accepted.",
    ):
        assert not REMOVED_WRITE_ONLY_FORMATS.search(snippet), snippet
    for snippet in (
        "self._doc_freqs: List[Dict[str, int]] = []",
        "for doc_index in self._postings.get(tok, ()):",
        "for i in self.candidates(query_tokens)",
        "assert index.candidates([\"beach\"]) == [0, 2]",
        "def candidates(self, query_tokens):",
        "Tokenizer(TokenizerConfig(lowercase=False))",
        "    lowercase: bool = True",
        "normalized = text.lower() if c.lowercase else text",
    ):
        assert REMOVED_SECOND_SCORER.search(snippet), snippet
    for snippet in (
        "self._terms.setdefault(tok, {})[doc_index] = term",
        "candidates.update(state.positions_with_token.get(tok, ()))",
        "us, vs, shared = self._lsh_candidates(query_sets)",
        '("repro.text.bm25", "BM25", "candidates", "text.bm25.candidates"),',
        "tokens = _TOKEN_RE.findall(text.lower())",
        "Text is always lowercased: the token pattern",
        "alphabet=string.ascii_lowercase",
    ):
        assert not REMOVED_SECOND_SCORER.search(snippet), snippet
    for snippet in (
        "from repro.data.marketplace import PROFILES, generate_marketplace",
        "market = generate_marketplace(PROFILES[profile].with_seed(seed))",
        "config = PROFILES[profile].with_seed(seed)",
    ):
        assert REGENERATED_WORLD.search(snippet), snippet
    for snippet in (
        "if spec.read_shape not in READ_PROFILES:",
        "window = load_window(self._feed.base_dir)",
        "probes = probe_queries(model)",
    ):
        assert not REGENERATED_WORLD.search(snippet), snippet
    for snippet in (
        "from repro.store.querylog import QueryLogStore, QueryLogStoreConfig",
        "store = QueryLogStore(QueryLogStoreConfig(window_days=7))",
        "segment = self._segments.setdefault(day, ColumnarTable(schema))",
        "updater.seed_log(market.query_log)",
        "* :mod:`repro.store.tables` — typed, append-only columnar tables",
    ):
        assert REMOVED_QUERY_LOG_STORE.search(snippet), snippet
    for snippet in (
        "window = ClickWindow(shoal_config.window_days)",
        "updater = StreamingUpdater(inc, pipe, window=load_window(d))",
        "from repro.analytics.store import AnalyticsStore",
        "from repro.store.persistence import load_window",
    ):
        assert not REMOVED_QUERY_LOG_STORE.search(snippet), snippet
    for snippet in (
        "from repro.store.persistence import load_entity_categories, load_model",
        "models.append(load_model(shard_dir))",
        "embeddings=_empty_embeddings(model.config.word2vec.dim),",
        "svc.set_entity_categories(mapping)",
        "self._state = self._state.with_entity_categories(mapping)",
        "queries = probe_queries(backend.service.model, 1)",
    ):
        assert FULL_MODEL_ON_READ_PATH.search(snippet), snippet
    for snippet in (
        "from repro.store.persistence import load_serving",
        "models.append(load_serving(shard_dir))",
        "return cls(load_serving(directory), tokenizer)",
        "self._engine.refresh(generation.serving)",
        "entity_categories=serving.entity_categories,",
        "queries = probe_queries(backend.service.taxonomy, 1)",
    ):
        assert not FULL_MODEL_ON_READ_PATH.search(snippet), snippet
    for snippet in (
        "model = backend.service.model",
        "assert tier.service.model is switch.current.model",
    ):
        assert SERVICE_MODEL_ACCESSOR.search(snippet), snippet
    for snippet in (
        "model = load_model(args.load)",
        "assert tier.service.taxonomy is switch.current.serving.taxonomy",
        "inc.model.save(base_dir, entity_categories=categories)",
        "backend.service.model_version",
    ):
        assert not SERVICE_MODEL_ACCESSOR.search(snippet), snippet
    for snippet in (
        "if self._cached(request):",
        "backend.cached(request) if isinstance(backend, Gateway)",
        "return self._cache_stage.holds(request)",
        "def holds(self, request: Request) -> bool:",
        "_silence(task)",
        'def _silence(task: "asyncio.Future") -> None:',
    ):
        assert REMOVED_READ_HOP.search(snippet), snippet
    for snippet in (
        "cached = self._cache.get(key)",
        "if cached is not MISS:",
        "@functools.cached_property",
        "return self._cache_stage.cache_stats()",
        "* the gateway holds every answer it computed",
        "self._stats.deadline_expired += 1",
    ):
        assert not REMOVED_READ_HOP.search(snippet), snippet
    for snippet in (
        "class _FeedPipe:",
        "self.wal = _WalView(workdir)",
        "from repro.replication import SegmentShipper",
        "    SEGMENTS.json           segment index: name, sha256",
        "for meta in self._wal.closed_segments():",
        "self._wal.roll()",
        "serve-follower --feed /tmp/feed --workdir /tmp/work",
    ):
        assert REMOVED_SEGMENT_REPLAY.search(snippet), snippet
    for snippet in (
        "from repro.replication import GenerationShipper",
        "    GENERATIONS.json        generation index",
        "self._roll_segment()",
        "def _roll_segment(self) -> None:",
        "angles = np.rollaxis(grid, 1)",
        'self.log_path = workdir / "server.log"',
        "a failed swap was already rolled back",
    ):
        assert not REMOVED_SEGMENT_REPLAY.search(snippet), snippet
    for snippet in (
        "from repro.core.incremental import IncrementalShoal",
        "import repro.streaming.updater as updater",
        "    from repro.streaming.updater import StreamingUpdater",
        "from repro.streaming import (\n    Generation,\n"
        "    StreamingUpdater,\n)",
        "from repro.core import incremental",
        "from repro import IncrementalShoal, ShoalService",
    ):
        assert FOLLOWER_FOLDS.search(snippet), snippet
    for snippet in (
        "from repro.streaming.rollout import Generation, GenerationSwitch",
        ":class:`~repro.streaming.updater.StreamingUpdater` via its",
        "from repro.streaming import Generation",
        "from repro.store.persistence import load_serving",
        "the primary's updater folds; an IncrementalShoal never runs here",
    ):
        assert not FOLLOWER_FOLDS.search(snippet), snippet
    for snippet in (
        "class _TraceBucket:",
        "    def _evict_stale_locked(self) -> None:",
        "return _SpanHandle(self, span)",
        "from repro.obs.tracer import _CURRENT_SPAN",
        "if current_span() is None:",
        'with traced("edge.dispatch", context=ctx, parent=root.span):',
        'tracer.span("edge.dispatch", context=ctx,\n'
        '            parent=root_handle.span)',
        'with traced("probe", tags={"shard": str(i)}, parent=p):',
    ):
        assert REMOVED_SPAN_STATE.search(snippet), snippet
    for snippet in (
        'with traced("edge.dispatch", context=ctx):',
        'with tracer.span("edge.request", context=ctx):',
        "span = Span(ctx, n, name, ctx.span_cursor, tags, self._clock())",
        "if ctx is None or ctx.span_cursor < 0:",
        "child_s[span.parent] += span.end - span.start",
        "parent_id = span.get(\"parent_id\")",
    ):
        assert not REMOVED_SPAN_STATE.search(snippet), snippet
    for snippet in (
        "self._event = threading.Event()",
        "done = threading.Event(); done.wait()",
    ):
        assert CANCEL_EVENT.search(snippet), snippet
    for snippet in (
        "self._cancelled = False",
        "self._lock = threading.Lock()",
        "if not self._event_loop.is_running():",
    ):
        assert not CANCEL_EVENT.search(snippet), snippet
    for snippet in (
        "from repro.serving import TrafficReplayer, WorkloadConfig",
        "from repro.serving.replay import build_write_workload",
        "report: ReplayReport = replayer.replay(workload)",
        "if self.profile not in WORKLOAD_PROFILES:",
        "reads = build_workload(market.query_log.queries, market.scenarios)",
        "python -m repro.cli replay --profile small --traffic bursty",
        "Replay is driven by `cli replay --backend URI`.",
    ):
        assert SECOND_TRAFFIC_HARNESS.search(snippet), snippet
    for snippet in (
        "from workloads import event_payloads, hot_strings, zipf_draws",
        "python scripts/ci_http_replay.py --url http://127.0.0.1:8471",
        "  cluster-replay:",
        "a restart replays the WAL from the snapshot's window",
        "inputs = build_inputs(spec, market, seed, seconds)",
        "python -m repro.cli serve-http --cluster-dir /tmp/shoal-cluster",
    ):
        assert not SECOND_TRAFFIC_HARNESS.search(snippet), snippet
    for snippet in (
        "python -m repro.cli ingest --profile tiny --wal /tmp/shoal-wal",
        "* ``cli ingest`` — stream live query events offline",
        "def _cmd_ingest(args) -> int:",
        "p_ingest.set_defaults(func=_cmd_ingest)",
        'p_ingest = sub.add_parser(\n        "ingest",',
        "sub.add_parser('ingest', help='stream events')",
    ):
        assert SECOND_FOLD_COMMAND.search(snippet), snippet
    for snippet in (
        "python -m repro.cli serve-http --load SNAP --ingest-wal /tmp/wal",
        "--ingest-wal DIR --ingest-fsync always",
        "client.ingest(event_payload(e))",
        'endpoint == "ingest"',
        'p_http.add_argument("--ingest-wal", default=None)',
        "def _cmd_analytics(args) -> int:",
    ):
        assert not SECOND_FOLD_COMMAND.search(snippet), snippet
    for snippet in (
        "from repro.core.incremental import IncrementalShoal",
        "inc = IncrementalShoal.from_model(model, entity_categories=cats)",
        "updater = StreamingUpdater(inc, pipe, switch=switch)",
        "model = load_model(args.load)",
        "batch = pipe.take_batch(max_events=64, max_age_s=2.0)",
        "with self._updater._state_lock:",
    ):
        assert FOLD_STATE.search(snippet), snippet
    for snippet in (
        "fold = FoldProcess(installer, snapshot=args.load, wal=wal)",
        "serving = load_serving_verified(record['dir'], fingerprint)",
        "pipe = IngestPipe(wal, applied_seq=lambda: fold.applied_seq)",
        "model = ShoalModel.load(args.load)",
        "self._state = _ServiceState(serving, self._tokenizer)",
        "window = load_window(args.load)",
    ):
        assert not FOLD_STATE.search(snippet), snippet
    assert [r.pattern for r in REMOVALS] == [
        FORBIDDEN,
        LEGACY_CALLS,
        BARE_METRICS,
        REMOVED_EDGE,
        REMOVED_CACHE_TIERS,
        REMOVED_HEDGING,
        REMOVED_WRITE_PATH_CONFIGS,
        REMOVED_SHARDED_WRITE_SIDE,
        REMOVED_WRITE_ONLY_FORMATS,
        REMOVED_SECOND_SCORER,
        REGENERATED_WORLD,
        REMOVED_QUERY_LOG_STORE,
        FULL_MODEL_ON_READ_PATH,
        SERVICE_MODEL_ACCESSOR,
        REMOVED_READ_HOP,
        REMOVED_SEGMENT_REPLAY,
        FOLLOWER_FOLDS,
        REMOVED_SPAN_STATE,
        CANCEL_EVENT,
        SECOND_TRAFFIC_HARNESS,
        SECOND_FOLD_COMMAND,
        FOLD_STATE,
    ]
