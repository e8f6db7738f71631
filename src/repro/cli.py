"""Command-line interface.

Operational entry points for the library, mirroring how the production
system would be driven:

* ``python -m repro.cli fit`` — generate a marketplace, run the
  pipeline, print the taxonomy tree and stats, and optionally persist
  the taxonomy as JSON (``--output``) or the full model as a versioned
  snapshot directory (``--save``);
* ``python -m repro.cli evaluate`` — run the precision protocol and
  modularity scoring against ground truth;
* ``python -m repro.cli search`` — answer keyword queries from the
  command line (demo scenario A);
* ``python -m repro.cli abtest`` — run the paired CTR experiment;
* ``python -m repro.cli serve-cluster`` — shard the model behind a
  cluster router, answer queries through it, and optionally write the
  per-shard snapshot directory (``--save-shards``);
* ``python -m repro.cli serve-http`` — expose a snapshot or cluster
  snapshot over the JSON gateway API (``repro.api``) on the asyncio
  HTTP edge, with the standard middleware stack (metrics, optional
  rate limit and deadline, result cache);
* ``python -m repro.cli analytics`` — fold a WAL into the SQLite
  analytics store offline and print a canned report (``--report``) or
  run one guarded read-only SQL statement (``--sql``) against it
  (``repro.analytics``);
* ``python -m repro.cli trace`` — fetch one sampled span tree from a
  running server's ``GET /v1/trace`` endpoint and render it as an
  indented tree (``--request-id`` for an exact lookup, otherwise the
  most recently sampled trace).

``serve-http --ingest-wal DIR`` additionally opens the **live** write
path: ``POST /v1/ingest`` admits query events into a durable WAL, a
fold process the server spawns slides the model window and writes each
generation as a snapshot, and the server loads every new generation
and hot-swaps it into the serving backend with zero read downtime.
``GET /v1/metrics`` exposes gateway, ingest, updater, analytics, and
edge counters as one JSON scrape point (the unversioned alias is gone
after its one-release deprecation).

The edge (:class:`~repro.api.aio.AsyncShoalServer`) holds thousands of
connections on one event loop and adds deadline cancellation and
coalesced WAL ingest.

Both serving roles (``serve-http`` and ``serve-follower``) carry the
observability surface: a :class:`~repro.obs.Tracer` samples
per-request span trees served at ``GET /v1/trace``
(``--trace-capacity 0`` disables tracing), ``GET
/v1/metrics?format=prom`` renders the whole metrics tree as
OpenMetrics text for scraping, and ``--access-log PATH`` appends one
structured JSON line per gateway request (``-`` writes to stdout).

``serve-http --analytics-db PATH`` (with ``--ingest-wal``) attaches
the HTAP analytics tier: a background :class:`SegmentTailer` streams
closed WAL segments into a WAL-mode SQLite replica, and ``GET/POST
/v1/analytics`` serves guarded SQL and canned reports from it without
ever touching a serving structure. ``--drift-threshold`` arms the
taxonomy-drift gate so trivially-different generations skip their
rollout entirely.

All serving paths go through the typed gateway API in
:mod:`repro.api`; this module never constructs a concrete read tier
directly (a contract test enforces that).

All subcommands accept ``--profile`` (tiny/small/default/large/xlarge)
and ``--seed`` so results are reproducible from the shell, plus
``--load DIR`` to warm-start from a ``fit --save`` snapshot instead of
refitting — the offline-fit → online-serving handoff. ``search
--load`` builds the read tier purely from disk, no marketplace
generation at all.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.api import (
    ANALYTICS_REPORTS,
    BatchRequest,
    RecommendRequest,
    ServiceBackend,
    open_backend,
)
from repro.baselines.ontology_rec import OntologyRecommender, OntologyRecommenderConfig
from repro.core.config import ShoalConfig
from repro.core.pipeline import ShoalModel, ShoalPipeline
from repro.core.report import compute_stats, render_tree
from repro.data.marketplace import PROFILES, generate_marketplace
from repro.eval.abtest import ABTestConfig, ABTestSimulator
from repro.eval.precision import PrecisionConfig, SamplingPrecisionEvaluator
from repro.graph.modularity import modularity
from repro.store.persistence import save_taxonomy

__all__ = ["build_parser", "main"]

#: ``serve-http --ingest-wal``'s write path: how many WAL events the
#: fold process may lag behind before ingest sheds with 429, and its
#: micro-batch — taken at 64 events or once its oldest event has waited
#: 2 s, folded into a generation once at least 16 events are pending.
SERVE_INGEST_QUEUE = 4096
SERVE_BATCH_EVENTS = 64
SERVE_BATCH_AGE_S = 2.0
SERVE_MIN_BATCH_EVENTS = SERVE_BATCH_EVENTS // 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="small",
        help="synthetic marketplace size profile",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--alpha", type=float, default=None,
        help="override Eq. 3 mixing coefficient (default: paper's 0.7)",
    )
    parser.add_argument(
        "--load", default=None, metavar="DIR",
        help="load a model snapshot (from 'fit --save') instead of fitting",
    )


def _cache_size_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _cache_ttl_arg(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value:g}")
    return value


def _drift_threshold_arg(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {value:g}")
    return value


def _add_serve_flags(parser: argparse.ArgumentParser, *, port: int) -> None:
    """The flags both serving roles (serve-http, serve-follower) take."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=port, help="0 picks an ephemeral port"
    )
    parser.add_argument(
        "--cache-size", type=_cache_size_arg, default=4096,
        help="result-cache entries (0 = no caching: every request "
             "is computed)",
    )
    parser.add_argument(
        "--cache-ttl-s", type=_cache_ttl_arg, default=None,
        help="result-cache TTL in seconds (default: no expiry)",
    )
    parser.add_argument(
        "--rate-limit", type=float, default=None, metavar="QPS",
        help="token-bucket admission rate (default: unlimited)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None,
        help="default per-request deadline in milliseconds",
    )
    parser.add_argument(
        "--quiet", action="store_true", default=False,
        help="suppress per-request access logging",
    )
    parser.add_argument(
        "--access-log", default=None, metavar="PATH",
        help="append one structured JSON line per gateway request "
             "here ('-' = stdout; default: off)",
    )
    parser.add_argument(
        "--trace-capacity", type=int, default=256,
        help="sampled traces the in-memory ring retains for "
             "GET /v1/trace (0 disables tracing)",
    )


def _fit_model(args, market):
    config = ShoalConfig()
    if args.alpha is not None:
        config = config.with_alpha(args.alpha)
    return ShoalPipeline(config).fit(market)


def _check_load_flags(args) -> None:
    """Reject flag combinations that would silently have no effect."""
    if args.load and args.alpha is not None:
        raise SystemExit(
            "--alpha has no effect with --load: the snapshot was fitted "
            "with its own alpha; refit with 'fit --alpha ... --save' instead"
        )


def _check_world_metadata(meta: dict, location: str, args) -> None:
    """Fail fast when a saved artifact mismatches the regenerated world.

    Ground truth (evaluate) and the CTR simulation (abtest) come from
    the regenerated marketplace, so the artifact must have been built
    on the same --profile/--seed. The CLI records
    both in the manifest metadata on every save.
    """
    profile, seed = meta.get("profile"), meta.get("seed")
    if profile is None:
        return  # artifact not written by the CLI; trust the operator
    if profile != args.profile or seed != args.seed:
        raise SystemExit(
            f"{location} was built on --profile {profile} --seed {seed}, "
            f"but this command runs against --profile {args.profile} "
            f"--seed {args.seed}; rerun with the artifact's flags"
        )


def _check_snapshot_world(args) -> None:
    from repro.store.persistence import read_manifest

    _check_world_metadata(
        read_manifest(args.load).get("metadata", {}),
        f"snapshot at {args.load}",
        args,
    )


def _build(args) -> tuple:
    """(marketplace, model) — loading the model from a snapshot when
    ``--load`` is given, so only the cheap world generation runs."""
    _check_load_flags(args)
    if args.load:
        _check_snapshot_world(args)
    market = generate_marketplace(PROFILES[args.profile].with_seed(args.seed))
    if args.load:
        model = ShoalModel.load(args.load)
    else:
        model = _fit_model(args, market)
    return market, model


def _cmd_fit(args) -> int:
    market, model = _build(args)
    names = {c.category_id: c.name for c in market.ontology}
    print(market.summary())
    print(model.summary())
    print()
    print(render_tree(model.taxonomy, names, max_roots=args.max_roots))
    print()
    print(compute_stats(model.taxonomy).summary())
    if args.output:
        save_taxonomy(model.taxonomy, args.output)
        print(f"taxonomy written to {args.output}")
    if args.save:
        model.save(
            args.save,
            entity_categories={
                e.entity_id: e.category_id for e in market.catalog.entities
            },
            metadata={"profile": args.profile, "seed": args.seed},
        )
        print(f"model snapshot written to {args.save}")
    return 0


def _cmd_evaluate(args) -> int:
    market, model = _build(args)
    truth = {e.entity_id: e.scenario_id for e in market.catalog.entities}
    report = SamplingPrecisionEvaluator(
        PrecisionConfig(n_topics=args.topics, items_per_topic=args.items)
    ).evaluate(model.taxonomy, truth)
    labels = model.clustering.dendrogram.root_partition()
    q = modularity(model.entity_graph, labels)
    print(f"precision: {report.summary()}  (paper: >= 0.98)")
    print(f"modularity: {q:.3f}  (paper: > 0.3)")
    return 0 if (report.precision >= 0.9 and q > 0.3) else 1


def _print_hits(backend, queries, results, names) -> None:
    """Shared hit renderer for search/serve-cluster."""
    categories_of = getattr(backend, "categories_of_topic", None)
    for query, hits in zip(queries, results):
        print(f"query: {query!r}")
        if not hits:
            print("  (no matching topics)")
            continue
        for h in hits:
            cats = categories_of(h.topic_id) if categories_of else []
            cat_names = ", ".join(names.get(c, str(c)) for c in cats[:4])
            print(
                f"  topic {h.topic_id}  score={h.score:7.2f}  \"{h.label}\""
                f"  [{cat_names}]"
            )


def _cmd_search(args) -> int:
    _check_load_flags(args)
    if args.load:
        # Pure warm-start: the read tier comes entirely from the
        # snapshot — no marketplace generation, no fitting. (No world
        # consistency check needed: nothing here uses the marketplace.)
        backend = open_backend(f"snapshot:{args.load}")
        names = {}
        # A demo query when serving from disk: a topic's own description.
        from repro.streaming import probe_queries

        queries = args.queries or probe_queries(
            backend.service.taxonomy, 1
        ) or ["example"]
    else:
        market, model = _build(args)
        backend = ServiceBackend.from_model(
            model, entity_categories=_entity_categories(market)
        )
        names = {c.category_id: c.name for c in market.ontology}
        queries = args.queries or [
            next(
                q.text for q in market.query_log.queries
                if q.intent_kind == "scenario"
            )
        ]
    response = backend.batch(
        BatchRequest(queries=tuple(queries), k=args.k, kind="search")
    )
    _print_hits(backend, queries, response.results, names)
    return 0


def _entity_categories(market) -> dict:
    return {e.entity_id: e.category_id for e in market.catalog.entities}


def _cmd_serve_cluster(args) -> int:
    from repro.api import ClusterBackend
    from repro.serving import ShardPlanner

    market, model = _build(args)
    cats = _entity_categories(market)
    # Partition once; the backend and --save-shards share the shard set.
    shard_set = ShardPlanner(args.shards).partition(model, cats)
    backend = ClusterBackend.from_shard_set(shard_set)
    print(model.summary())
    print(backend.router.plan_summary)
    names = {c.category_id: c.name for c in market.ontology}
    queries = args.queries or [
        q.text
        for q in market.query_log.queries
        if q.intent_kind == "scenario"
    ][:3]
    response = backend.batch(
        BatchRequest(queries=tuple(queries), k=args.k, kind="search")
    )
    _print_hits(backend, queries, response.results, names)
    print(backend.router.cluster_stats().summary())
    if args.save_shards:
        ShardPlanner.save_shard_set(
            shard_set,
            args.save_shards,
            metadata={"profile": args.profile, "seed": args.seed},
        )
        print(f"cluster snapshot written to {args.save_shards}")
    return 0


def _cmd_abtest(args) -> int:
    market, model = _build(args)
    backend = ServiceBackend.from_model(
        model, entity_categories=_entity_categories(market)
    )
    control = OntologyRecommender(
        market.ontology, market.catalog,
        OntologyRecommenderConfig(slate_size=args.slate),
    )
    sim = ABTestSimulator(
        market, ABTestConfig(n_impressions=args.impressions, seed=args.seed)
    )
    report = sim.run(
        control.recommend,
        lambda uid, q: list(
            backend.recommend(
                RecommendRequest(query=q, k=args.slate)
            ).entity_ids
        ),
    )
    print(report.summary())
    print("paper reported: +5% CTR (3M users, Taobao)")
    return 0 if report.relative_uplift > 0 else 1


def _build_ingest_side(args, backend, tracer):
    """(pipe, fold, shipper) for ``serve-http --ingest-wal``.

    All three are ``None`` without ``--ingest-wal``; the shipper is
    ``None`` without ``--ship-feed``.

    This process folds nothing. A :class:`FoldProcess` spawns the fold
    child, which restarts from the newest generation under
    ``--generations`` (``DIR/generations`` inside the WAL directory by
    default) or from the snapshot's click window (``window.npz``), and
    replays the WAL after it. Each generation the child writes is
    loaded here, verified by fingerprint, and hot-swapped into the
    serving backend by a :class:`GenerationSwitch` whose probe queries
    come from the snapshot. The fold child is started but not waited
    for: reads are served from the snapshot meanwhile.
    """
    if not args.ingest_wal:
        return None, None, None
    if not args.load:
        raise SystemExit(
            "--ingest-wal requires --load DIR: the fold process starts "
            "from the model snapshot (cluster snapshots only carry the "
            "sharded halves)"
        )
    from repro.store.persistence import load_window
    from repro.streaming import (
        FoldProcess,
        Generation,
        GenerationInstaller,
        GenerationSwitch,
        IngestPipe,
        WriteAheadLog,
        probe_queries,
    )

    try:
        window = load_window(args.load)
    except FileNotFoundError as exc:
        raise SystemExit(
            f"--ingest-wal cannot restart the window: {exc}"
        ) from None
    serving = backend.service.serving
    # The snapshot is the baseline: the switch's current generation
    # until the first one is published, and the drift gate's reference.
    baseline = Generation(
        number=0, serving=serving, last_day=window.last_day or 0
    )
    switch = GenerationSwitch(
        probe_queries=probe_queries(serving.taxonomy), baseline=baseline
    ).attach(backend)
    wal = WriteAheadLog(args.ingest_wal, fsync=args.ingest_fsync)
    drift_gate = None
    if args.drift_threshold is not None:
        from repro.analytics import DriftMonitor

        drift_gate = DriftMonitor(threshold=args.drift_threshold)
    shipper = None
    if args.ship_feed:
        from repro.replication import GenerationShipper

        shipper = GenerationShipper(args.ship_feed, baseline)
        shipper.initialise()
    installer = GenerationInstaller(
        switch,
        wal,
        drift_gate=drift_gate,
        on_generation=None if shipper is None else shipper.publish_generation,
    )
    fold = FoldProcess(
        installer,
        snapshot=args.load,
        wal=wal,
        generations_dir=args.generations or Path(args.ingest_wal) / "generations",
        batch_max_events=SERVE_BATCH_EVENTS,
        batch_max_age_s=SERVE_BATCH_AGE_S,
        min_batch_events=SERVE_MIN_BATCH_EVENTS,
        tracer=tracer,
    )
    pipe = IngestPipe(
        wal,
        max_queue=SERVE_INGEST_QUEUE,
        applied_seq=lambda: fold.applied_seq,
    )
    return pipe, fold, shipper


def _build_analytics_side(args, backend, pipe):
    """(engine, tailer) for ``serve-http --analytics-db`` (None,None
    without). The tailer streams the same WAL the ingest pipe appends
    to into an isolated SQLite replica; queries against it can never
    contend with the serving structures."""
    if not args.analytics_db:
        return None, None
    from repro.analytics import (
        AnalyticsStore,
        QueryEngine,
        SegmentTailer,
        make_topic_resolver,
    )

    store = AnalyticsStore(args.analytics_db)
    tailer = SegmentTailer(
        args.ingest_wal,
        store,
        resolver=make_topic_resolver(backend),
        ingest_pipe=pipe,
    )
    caught_up = tailer.catch_up()
    if caught_up:
        print(
            f"analytics store caught up: {caught_up} WAL events folded "
            f"into {args.analytics_db}"
        )
    tailer.start()
    return QueryEngine(store), tailer


def _open_access_log(args):
    """File object for ``--access-log`` (None when off, ``-`` = stdout).

    Line-buffered so a crash loses at most the in-flight line and tail
    tooling sees requests as they complete.
    """
    path = getattr(args, "access_log", None)
    if not path:
        return None
    if path == "-":
        return sys.stdout
    return open(path, "a", buffering=1, encoding="utf-8")


def _build_tracer(args):
    """Tracer for a serving role, installed as the process default.

    The edge hands it to every :class:`RequestContext` it mints, so
    request spans land in it; installing it as the module default also
    catches background work (generation installs, shipper publishes,
    follower loads) as ``bg-N`` root traces, and the fold process's
    span trees are folded into it too. ``--trace-capacity 0`` disables
    tracing entirely (``/v1/trace`` then answers ``not_found``).
    """
    if args.trace_capacity <= 0:
        return None
    from repro.obs import Tracer, set_default_tracer

    tracer = Tracer(capacity=args.trace_capacity)
    set_default_tracer(tracer)
    return tracer


def _check_cache_flags(args) -> None:
    """Reject the cache flag combination that would have no effect."""
    if args.cache_size == 0 and args.cache_ttl_s is not None:
        raise SystemExit(
            "--cache-ttl-s has no effect with --cache-size 0: there is "
            "no result cache for entries to expire from"
        )


#: ``serve-http`` flags that only configure the write path, and why
#: each one is meaningless without ``--ingest-wal``.
_WRITE_PATH_FLAGS = (
    ("ship_feed", "--ship-feed",
     "followers load the generations the write path produces"),
    ("analytics_db", "--analytics-db",
     "the analytics store is a replica of the write-ahead log"),
    ("drift_threshold", "--drift-threshold",
     "the drift gate decides whether a new generation rolls out"),
    ("generations", "--generations",
     "generations are produced only by the write path"),
)


def _check_write_path_flags(args) -> None:
    """Reject write-path flags given without ``--ingest-wal``."""
    if args.ingest_wal:
        return
    for dest, flag, why in _WRITE_PATH_FLAGS:
        if getattr(args, dest) is not None:
            raise SystemExit(f"{flag} requires --ingest-wal DIR: {why}")


def _gateway_over(backend, middlewares=None, *, access_log=None):
    """A gateway over an in-process tier (default stack unless given).

    The one place that knows a gateway over a follower tier must be
    attached to the follower's switch: epoch swaps drop its result
    cache, exactly like the primary's hot-swap path.
    """
    from repro.api import Gateway

    gateway = Gateway(backend, middlewares, access_log=access_log)
    if backend.kind == "follower":
        backend.follower.switch.attach(gateway)
    return gateway


def _build_gateway(args, backend):
    """The serving roles' gateway: the standard middleware stack from
    the shared serve flags, plus the optional access log."""
    from repro.api import default_middlewares

    return _gateway_over(
        backend,
        default_middlewares(
            cache_size=args.cache_size,
            cache_ttl_s=args.cache_ttl_s,
            rate_limit=args.rate_limit,
            deadline_ms=args.deadline_ms,
        ),
        access_log=_open_access_log(args),
    )


def _run_server(
    server, what: str, surface: str, *, on_start=None, on_stop=None
) -> int:
    """Start ``server``, print its banner, and serve until Ctrl-C;
    ``on_start`` runs once the banner is out (work readiness must not
    wait for), ``on_stop`` just before the server shuts down."""
    server.start()  # binds the port so the banner can name it
    print(
        f"serving {what} on {server.url} ({surface}; Ctrl-C to stop)",
        flush=True,
    )
    if on_start is not None:
        on_start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        if on_stop is not None:
            on_stop()
        server.shutdown()
    return 0


def _cmd_serve_http(args) -> int:
    from repro.api import AsyncShoalServer

    _check_cache_flags(args)
    _check_write_path_flags(args)
    if bool(args.load) == bool(args.cluster_dir):
        raise SystemExit(
            "serve-http needs exactly one of --load DIR or --cluster-dir DIR"
        )
    if args.load:
        backend = open_backend(f"snapshot:{args.load}")
    else:
        backend = open_backend(f"cluster:{args.cluster_dir}")
    tracer = _build_tracer(args)
    gateway = _build_gateway(args, backend)
    pipe, fold, shipper = _build_ingest_side(args, backend, tracer)
    if fold is not None:
        # The gateway's result cache must drop on each hot-swap too.
        fold.switch.attach(gateway)
    analytics_engine, analytics_tailer = _build_analytics_side(
        args, backend, pipe
    )
    replication_stats = None
    coordinator_stop = None
    if shipper is not None:
        import threading as _threading

        from repro.replication import EpochCoordinator, coordinator_loop

        coordinator = EpochCoordinator(
            args.ship_feed, quorum=args.ship_quorum
        )
        coordinator_stop = _threading.Event()
        _threading.Thread(
            target=coordinator_loop,
            args=(coordinator,),
            kwargs={"stop": coordinator_stop},
            name="shoal-epoch-coordinator",
            daemon=True,
        ).start()
        replication_stats = lambda: {  # noqa: E731
            **shipper.stats(),
            "coordinator": coordinator.stats(),
        }
    server = AsyncShoalServer(
        gateway,
        args.host,
        args.port,
        quiet=args.quiet,
        ingest_pipe=pipe,
        updater=fold,
        analytics_engine=analytics_engine,
        analytics_tailer=analytics_tailer,
        default_timeout_ms=args.deadline_ms,
        replication_stats=replication_stats,
        tracer=tracer,
    )
    write_side = " /v1/ingest;" if pipe is not None else ""
    analytics_side = (
        " GET/POST /v1/analytics;" if analytics_engine is not None else ""
    )
    return _run_server(
        server,
        f"{backend.kind} backend",
        f"POST /v1/search /v1/recommend /v1/batch{write_side}"
        f"{analytics_side} GET /v1/health /v1/stats /v1/metrics /v1/trace",
        # The fold process imports and loads on its own time: reads are
        # served from the snapshot until its first generation.
        on_start=None if fold is None else fold.start,
        on_stop=None if coordinator_stop is None else coordinator_stop.set,
    )


def _cmd_serve_follower(args) -> int:
    """Serve reads from a replication feed, swapping on epoch bumps."""
    from repro.api import AsyncShoalServer
    from repro.replication import Follower

    _check_cache_flags(args)
    follower = Follower(args.feed, follower_id=args.id)
    backend = follower.bootstrap()
    tracer = _build_tracer(args)
    gateway = _build_gateway(args, backend)
    verified = follower.catch_up(timeout_s=args.catch_up_s)
    if verified:
        print(f"caught up: verified {verified} generations in {args.feed}")
    follower.start()
    server = AsyncShoalServer(
        gateway,
        args.host,
        args.port,
        quiet=args.quiet,
        default_timeout_ms=args.deadline_ms,
        replication_stats=follower.stats,
        tracer=tracer,
    )
    return _run_server(
        server,
        f"follower {follower.follower_id}",
        f"feed {args.feed}, epoch {follower.epoch}; "
        "POST /v1/search /v1/recommend /v1/batch; "
        "GET /v1/health /v1/stats /v1/metrics /v1/trace",
    )


def _print_table(response) -> None:
    """Render an AnalyticsResponse as an aligned text table."""
    columns = [str(c) for c in response.columns]
    rows = [
        ["" if cell is None else str(cell) for cell in row]
        for row in response.rows
    ]
    widths = [
        max(len(col), *(len(r[i]) for r in rows)) if rows else len(col)
        for i, col in enumerate(columns)
    ]
    line = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    print(line)
    print("  ".join("-" * w for w in widths))
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    note = []
    if response.truncated:
        note.append("truncated at the row limit")
    if response.sampled:
        note.append("over the reservoir sample")
    suffix = f" ({'; '.join(note)})" if note else ""
    print(
        f"[{len(rows)} rows in {response.elapsed_ms:.1f}ms{suffix}]"
    )


def _cmd_analytics(args) -> int:
    """Offline WAL -> analytics store -> one report or SQL statement."""
    from repro.analytics import (
        AnalyticsStore,
        QueryEngine,
        SegmentTailer,
        make_topic_resolver,
    )
    from repro.api import AnalyticsRequest, ApiError

    if bool(args.sql) == bool(args.report):
        raise SystemExit(
            "analytics needs exactly one of --report NAME or --sql SQL"
        )
    db = args.db or str(Path(args.wal) / "analytics.db")
    resolver = None
    if args.load:
        resolver = make_topic_resolver(
            open_backend(f"snapshot:{args.load}")
        )
    store = AnalyticsStore(db)
    try:
        tailer = SegmentTailer(args.wal, store, resolver=resolver)
        folded = tailer.catch_up()
        counts = store.counts()
        print(
            f"folded {folded} new events (store now holds "
            f"{counts['events']} events through seq "
            f"{counts['applied_seq']}) into {db}"
        )
        engine = QueryEngine(store)
        try:
            request = AnalyticsRequest(
                sql=args.sql or None,
                report=args.report or None,
                limit=args.limit,
                sample=args.sample,
            )
            _print_table(engine.query(request))
        except ApiError as exc:
            print(f"analytics error [{exc.code}]: {exc}")
            return 1
    finally:
        store.close()
    return 0


def _render_span_tree(spans) -> List[str]:
    """Indented text rendering of a TraceResponse's span list.

    Parents always precede children in the exported list, so a single
    pass with a child map suffices. Orphans (parent evicted by the
    per-trace span cap) render as extra roots rather than vanishing.
    """
    by_parent: dict = {}
    ids = {s["span_id"] for s in spans}
    roots = []
    for s in spans:
        parent = s.get("parent_id")
        if parent is None or parent not in ids:
            roots.append(s)
        else:
            by_parent.setdefault(parent, []).append(s)

    lines: List[str] = []

    def walk(span, depth):
        tags = span.get("tags") or {}
        tag_text = " ".join(f"{k}={v}" for k, v in sorted(tags.items()))
        status = span["status"]
        if span.get("detail"):
            status += f" ({span['detail']})"
        lines.append(
            f"{'  ' * depth}{span['name']:<{max(32 - 2 * depth, 8)}} "
            f"+{span['start_ms']:8.3f}ms  {span['duration_ms']:8.3f}ms  "
            f"{status}" + (f"  [{tag_text}]" if tag_text else "")
        )
        for child in by_parent.get(span["span_id"], []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return lines


def _cmd_trace(args) -> int:
    """Fetch one sampled span tree from GET /v1/trace and render it."""
    from repro.api import ApiError, ShoalClient

    client = ShoalClient(args.url, timeout=args.timeout)
    try:
        response = client.trace(args.request_id)
    except ApiError as exc:
        print(f"trace error [{exc.code}]: {exc}")
        return 1
    print(
        f"trace {response.request_id}  endpoint={response.endpoint}  "
        f"duration={response.duration_ms:.3f}ms  "
        f"sampled={response.sampled}  spans={len(response.spans)}"
    )
    for line in _render_span_tree(response.spans):
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SHOAL reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit SHOAL and print the taxonomy")
    _add_common(p_fit)
    p_fit.add_argument("--max-roots", type=int, default=8)
    p_fit.add_argument("--output", default=None, help="write taxonomy JSON here")
    p_fit.add_argument(
        "--save", default=None, metavar="DIR",
        help="write a full model snapshot directory (for later --load)",
    )
    p_fit.set_defaults(func=_cmd_fit)

    p_eval = sub.add_parser("evaluate", help="precision + modularity check")
    _add_common(p_eval)
    p_eval.add_argument("--topics", type=int, default=1000)
    p_eval.add_argument("--items", type=int, default=100)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_search = sub.add_parser("search", help="keyword search over topics")
    _add_common(p_search)
    p_search.add_argument("queries", nargs="*", help="queries to run")
    p_search.add_argument("-k", type=int, default=5)
    p_search.set_defaults(func=_cmd_search)

    p_ab = sub.add_parser("abtest", help="run the paired CTR A/B simulation")
    _add_common(p_ab)
    p_ab.add_argument("--impressions", type=int, default=5000)
    p_ab.add_argument("--slate", type=int, default=8)
    p_ab.set_defaults(func=_cmd_abtest)

    p_cluster = sub.add_parser(
        "serve-cluster", help="shard the model and serve through a router"
    )
    _add_common(p_cluster)
    p_cluster.add_argument("queries", nargs="*", help="queries to run")
    p_cluster.add_argument("-k", type=int, default=5)
    p_cluster.add_argument(
        "--shards", type=int, default=2, help="number of shards"
    )
    p_cluster.add_argument(
        "--save-shards", default=None, metavar="DIR",
        help="write a per-shard cluster snapshot directory",
    )
    p_cluster.set_defaults(func=_cmd_serve_cluster)

    p_http = sub.add_parser(
        "serve-http",
        help="serve the typed gateway API over HTTP from a snapshot",
    )
    p_http.add_argument(
        "--load", default=None, metavar="DIR",
        help="model snapshot directory (from 'fit --save')",
    )
    p_http.add_argument(
        "--cluster-dir", default=None, metavar="DIR",
        help="cluster snapshot directory (from 'serve-cluster --save-shards')",
    )
    _add_serve_flags(p_http, port=8080)
    p_http.add_argument(
        "--ingest-wal", default=None, metavar="DIR",
        help="enable the write path: durable WAL directory for "
             "POST /v1/ingest (requires --load)",
    )
    p_http.add_argument(
        "--ingest-fsync", default="batch",
        choices=["always", "batch", "never"],
        help="WAL fsync policy (batch = once per micro-batch the fold "
             "process takes)",
    )
    p_http.add_argument(
        "--generations", default=None, metavar="DIR",
        help="where the fold process writes each generation as a full "
             "snapshot, and restarts from the newest one (default: "
             "DIR/generations inside the --ingest-wal directory; the "
             "newest 8 are kept; requires --ingest-wal)",
    )
    p_http.add_argument(
        "--analytics-db", default=None, metavar="PATH",
        help="enable the HTAP analytics tier: SQLite replica of the "
             "WAL served at GET/POST /v1/analytics (requires "
             "--ingest-wal)",
    )
    p_http.add_argument(
        "--drift-threshold", type=_drift_threshold_arg, default=None,
        metavar="FRAC",
        help="skip a generation rollout when at most this fraction of "
             "entities changed topic membership (0.0 = only skip "
             "identical partitions; default: never skip; requires "
             "--ingest-wal)",
    )
    p_http.add_argument(
        "--ship-feed", default=None, metavar="DIR",
        help="publish each generation's serving files + a generation "
             "index into this replication feed directory and run the "
             "epoch coordinator over it (requires --ingest-wal)",
    )
    p_http.add_argument(
        "--ship-quorum", type=int, default=1,
        help="followers that must report a verified generation "
             "before an epoch swap is broadcast",
    )
    p_http.set_defaults(func=_cmd_serve_http)

    p_follower = sub.add_parser(
        "serve-follower",
        help="serve reads from a replication feed (see serve-http "
             "--ship-feed), hot-swapping on coordinated epoch bumps",
    )
    p_follower.add_argument(
        "--feed", required=True, metavar="DIR",
        help="replication feed directory published by the primary",
    )
    p_follower.add_argument(
        "--id", default=None,
        help="stable follower identity in reports (default: random)",
    )
    _add_serve_flags(p_follower, port=8081)
    p_follower.add_argument(
        "--catch-up-s", type=float, default=60.0,
        help="max seconds to catch up with the feed before the port "
             "opens",
    )
    p_follower.set_defaults(func=_cmd_serve_follower)

    p_analytics = sub.add_parser(
        "analytics",
        help="fold a WAL into the SQLite analytics store and query it",
    )
    p_analytics.add_argument(
        "--wal", required=True, metavar="DIR",
        help="write-ahead log directory to fold into the store",
    )
    p_analytics.add_argument(
        "--db", default=None, metavar="PATH",
        help="analytics SQLite file (default: <wal>/analytics.db)",
    )
    p_analytics.add_argument(
        "--report", default=None, choices=list(ANALYTICS_REPORTS),
        help="canned report to print",
    )
    p_analytics.add_argument(
        "--sql", default=None, metavar="SELECT",
        help="one guarded read-only SQL statement to run instead",
    )
    p_analytics.add_argument("--limit", type=int, default=100)
    p_analytics.add_argument(
        "--sample", action="store_true", default=False,
        help="run --sql over the fixed-size reservoir sample",
    )
    p_analytics.add_argument(
        "--load", default=None, metavar="DIR",
        help="model snapshot for per-topic attribution (optional; "
             "events get topic_id -1 without it)",
    )
    p_analytics.set_defaults(func=_cmd_analytics)

    p_trace = sub.add_parser(
        "trace",
        help="fetch one sampled span tree from a server's GET /v1/trace",
    )
    p_trace.add_argument(
        "--url", required=True, metavar="URL",
        help="gateway base URL, e.g. http://127.0.0.1:8080",
    )
    p_trace.add_argument(
        "--request-id", default=None,
        help="exact request id to look up (default: the most recently "
             "sampled trace)",
    )
    p_trace.add_argument("--timeout", type=float, default=10.0)
    p_trace.set_defaults(func=_cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
