"""Grep-enforced acceptance: frontends never construct read tiers.

``examples/``, ``cli.py``, ``serving/replay.py``, and ``benchmarks/``
must go through the :mod:`repro.api` adapters — no ``ShoalService(...)``
or ``ClusterRouter(...)`` construction (including the ``from_*``
factory classmethods) outside ``src/repro/api``. Engine *access*
through an adapter (``backend.service`` / ``backend.router``) is fine;
standing up a tier is not.

A second guard bans the *legacy method names* in the same frontend
paths: the deprecated thin delegates (``search_topics`` & co.) are
gone from the backends, so any surviving call site would now be either
dead code or an accidental raw-engine dependency.

A third guard bans the removed unversioned ``/metrics`` path: the
one-release alias is gone, so every scrape in a frontend, script, or
workflow must name ``/v1/metrics``.

A fourth guard bans the removed threaded edge and second dispatch
chain by name (``ShoalHttpServer``, ``_GatewayHandler``,
``handle_observed``, ``--edge``): there is one edge and one chain, so
nothing may select or describe another.

A fifth guard bans the removed inner cache tiers and the in-process
replicas that existed to hold them (``n_replicas``, ``--replicas``,
``replica_request_counts``, ``front_cache``, ``_engine_cache_size``,
``invalidate_caches``): the gateway's ``CacheMiddleware`` is the one
result cache, so nothing may size, count or flush another.

A sixth guard bans request hedging and what existed only to serve it
(any ``hedg…`` word, ``RequestContext.child``, ``.child(tags=``, the
``edge.attempt`` span): a read is one attempt under one context, so
nothing may launch, count, configure or describe a second.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Direct-tier construction: the class name immediately called or used
#: through a factory classmethod.
FORBIDDEN = re.compile(
    r"\b(ShoalService|ClusterRouter)\s*(\(|\.from_\w+\s*\()"
)

#: The removed delegate names, as method calls on anything.
LEGACY_CALLS = re.compile(
    r"\.(search_topics|search_topics_batch|"
    r"recommend_entities_for_query|recommend_batch)\s*\("
)

FRONTEND_PATHS = [
    "examples",
    "benchmarks",
    "src/repro/cli.py",
    "src/repro/serving/replay.py",
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

#: Frontends allowed to time the raw engine *behind* an adapter
#: (reached via ``backend.service``, never constructed) — the only
#: sanctioned use of the engine method names outside the adapters.
LEGACY_CALL_EXEMPT = {
    "benchmarks/test_bench_api.py",
    "benchmarks/test_bench_serving.py",
    "benchmarks/check_regressions.py",
}


def _offending(path, pattern):
    return [
        f"{path.name}:{lineno}: {line.strip()}"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]


def _frontend_files():
    for entry in FRONTEND_PATHS:
        path = REPO_ROOT / entry
        if path.is_file():
            yield path
        else:
            yield from sorted(path.rglob("*.py"))


@pytest.mark.parametrize(
    "path", list(_frontend_files()), ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_frontend_has_no_direct_tier_construction(path):
    offending = _offending(path, FORBIDDEN)
    assert not offending, (
        "direct read-tier construction outside repro/api adapters "
        "(use ServiceBackend/ClusterBackend/open_backend):\n"
        + "\n".join(offending)
    )


@pytest.mark.parametrize(
    "path", list(_frontend_files()), ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_frontend_has_no_legacy_delegate_calls(path):
    if str(path.relative_to(REPO_ROOT)) in LEGACY_CALL_EXEMPT:
        pytest.skip("sanctioned raw-engine timing harness")
    offending = _offending(path, LEGACY_CALLS)
    assert not offending, (
        "legacy delegate call in a frontend (the thin delegates were "
        "removed; build a typed request and call search/recommend/"
        "batch):\n" + "\n".join(offending)
    )


def _scan_files(entries):
    for entry in entries:
        path = REPO_ROOT / entry
        if path.is_file():
            yield path
        elif path.is_dir():
            yield from sorted(
                p
                for p in path.rglob("*")
                if p.is_file() and p.suffix in (".py", ".yml", ".yaml", ".md")
            )


@pytest.mark.parametrize(
    "path",
    list(_scan_files(METRICS_SCAN_PATHS)),
    ids=lambda p: str(p.relative_to(REPO_ROOT)),
)
def test_no_bare_metrics_path_anywhere(path):
    offending = _offending(path, BARE_METRICS)
    assert not offending, (
        "unversioned /metrics path (the alias was removed; scrape "
        "/v1/metrics):\n" + "\n".join(offending)
    )


@pytest.mark.parametrize(
    "path",
    list(_scan_files(REMOVED_EDGE_SCAN_PATHS)),
    ids=lambda p: str(p.relative_to(REPO_ROOT)),
)
def test_no_second_edge_or_chain_anywhere(path):
    offending = _offending(path, REMOVED_EDGE)
    assert not offending, (
        "reference to the removed threaded edge / observed chain "
        "(AsyncShoalServer is the only edge, Middleware.handle the only "
        "handler):\n" + "\n".join(offending)
    )


@pytest.mark.parametrize(
    "path",
    list(_scan_files(REMOVED_EDGE_SCAN_PATHS)),
    ids=lambda p: str(p.relative_to(REPO_ROOT)),
)
def test_no_second_cache_tier_or_replicas_anywhere(path):
    offending = _offending(path, REMOVED_CACHE_TIERS)
    assert not offending, (
        "reference to the removed engine/router caches or replicas "
        "(CacheMiddleware is the one result cache; wrap the backend in "
        "a Gateway):\n" + "\n".join(offending)
    )


@pytest.mark.parametrize(
    "path",
    list(_scan_files(REMOVED_EDGE_SCAN_PATHS)),
    ids=lambda p: str(p.relative_to(REPO_ROOT)),
)
def test_no_second_attempt_anywhere(path):
    offending = _offending(path, REMOVED_HEDGING)
    assert not offending, (
        "reference to the removed request hedging (a read is one "
        "executor task under the request's own context):\n"
        + "\n".join(offending)
    )


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
        "serve-http --coalesce-events 64",
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
