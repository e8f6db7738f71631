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
* ``python -m repro.cli replay`` — replay a Zipf-skewed traffic
  workload (steady/bursty/drifting/adversarial) against the single
  service, the sharded cluster, both, or any ``--backend`` URI
  (``snapshot:DIR`` / ``cluster:DIR`` / ``http://host:port``),
  reporting QPS and p50/p95/p99 latencies;
* ``python -m repro.cli ingest`` — run the streaming write path end to
  end offline: fit a base window, stream the remaining days' events
  through the WAL-backed ingest pipe, micro-batch them into model
  generations, and hot-swap each generation into a live read tier with
  health checks (``repro.streaming``);
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
background micro-batch updater slides the model window, and every new
generation is hot-swapped into the serving backend with zero read
downtime. ``GET /v1/metrics`` exposes gateway, ingest, updater,
analytics, and edge counters as one JSON scrape point (the
unversioned alias is gone after its one-release deprecation).

The edge (:class:`~repro.api.aio.AsyncShoalServer`) holds thousands of
connections on one event loop and adds deadline cancellation and
coalesced WAL ingest (``--coalesce-events`` / ``--coalesce-delay-ms``).

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

    Ground truth (evaluate), the CTR simulation (abtest) and replay
    workloads come from the regenerated marketplace, so the artifact
    must have been built on the same --profile/--seed. The CLI records
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


def _default_snapshot_query(service) -> str:
    """A demo query when serving from disk: a topic's own description."""
    for topic in service.taxonomy.root_topics():
        if topic.descriptions:
            return topic.descriptions[0]
    return "example"


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
        queries = args.queries or [_default_snapshot_query(backend.service)]
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


def _check_cluster_world(args) -> None:
    from repro.serving import ShardPlanner

    _check_world_metadata(
        ShardPlanner.read_cluster_manifest(args.cluster_dir).get(
            "metadata", {}
        ),
        f"cluster snapshot at {args.cluster_dir}",
        args,
    )


def _check_backend_world(args) -> None:
    """World check for local `--backend` URIs (same guard as --load /
    --cluster-dir). Remote http(s) backends own their snapshot — there
    is nothing local to compare."""
    from pathlib import Path

    uri = args.backend
    if uri.startswith(("http://", "https://")):
        return
    path = uri
    for scheme in ("snapshot:", "cluster:"):
        if uri.startswith(scheme):
            path = uri[len(scheme):]
            break
    path = Path(path)
    if (path / "CLUSTER_MANIFEST.json").is_file():
        from repro.serving import ShardPlanner

        meta = ShardPlanner.read_cluster_manifest(path).get("metadata", {})
    elif (path / "MANIFEST.json").is_file():
        from repro.store.persistence import read_manifest

        meta = read_manifest(path).get("metadata", {})
    else:
        return  # open_backend will produce the real error
    _check_world_metadata(meta, f"backend at {uri}", args)


def _cmd_replay(args) -> int:
    from repro.api import ClusterBackend
    from repro.serving import (
        TrafficReplayer,
        WorkloadConfig,
        build_workload,
    )

    if args.arrival == "open" and (args.rate is None or args.rate <= 0):
        raise SystemExit("--arrival open needs --rate RPS > 0")
    backend = None
    if args.backend:
        if args.cluster_dir or args.load:
            raise SystemExit(
                "--backend is mutually exclusive with --cluster-dir/--load: "
                "the URI names the serving tier"
            )
        _check_load_flags(args)
        _check_backend_world(args)
        market = generate_marketplace(
            PROFILES[args.profile].with_seed(args.seed)
        )
        model = None
        backend = open_backend(args.backend)
    elif args.cluster_dir:
        if args.load:
            raise SystemExit(
                "--cluster-dir and --load are mutually exclusive: the "
                "cluster snapshot already contains the sharded model"
            )
        _check_load_flags(args)
        _check_cluster_world(args)
        market = generate_marketplace(
            PROFILES[args.profile].with_seed(args.seed)
        )
        model = None
        backend = ClusterBackend.from_snapshot(args.cluster_dir)
    else:
        market, model = _build(args)

    workload = build_workload(
        market.query_log.queries,
        market.scenarios,
        WorkloadConfig(
            n_requests=args.requests,
            profile=args.traffic,
            zipf_exponent=args.zipf,
            pool_variants=args.variants,
            seed=args.seed,
        ),
    )
    warmup = args.warmup if args.warmup is not None else args.requests // 10
    pacing = (
        f" at an open-loop {args.rate:g}/s"
        if args.arrival == "open"
        else ""
    )
    print(
        f"replaying {len(workload)} '{args.traffic}' requests "
        f"({warmup} warm-up){pacing} ..."
    )

    replay_kwargs = dict(
        profile=args.traffic,
        warmup=warmup,
        arrival=args.arrival,
        rate=args.rate,
    )

    def replayer(target):
        # In-process tiers replay behind the default gateway, as
        # serve-http serves them, so the report's hit rate is the
        # production cache's; a remote server already is a gateway.
        if target.kind != "client":
            target = _gateway_over(target)
        return TrafficReplayer(target, k=args.k, concurrency=args.concurrency)

    reports = {}
    if args.backend:
        reports["backend"] = replayer(backend).replay(
            workload, **replay_kwargs
        )
    else:
        if args.target in ("single", "both"):
            if model is None:
                raise SystemExit(
                    "--target single/both needs a fitted or --load model; "
                    "--cluster-dir only carries the sharded form"
                )
            single = ServiceBackend.from_model(
                model, entity_categories=_entity_categories(market)
            )
            reports["single"] = replayer(single).replay(
                workload, **replay_kwargs
            )
        if args.target in ("cluster", "both"):
            if backend is None:
                backend = ClusterBackend.from_model(
                    model,
                    args.shards,
                    entity_categories=_entity_categories(market),
                )
            reports["cluster"] = replayer(backend).replay(
                workload, **replay_kwargs
            )
            print(backend.router.plan_summary)

    for name, report in reports.items():
        print(f"{name:>8}: {report.summary()}")
    if len(reports) == 2:
        speedup = reports["cluster"].qps / max(reports["single"].qps, 1e-9)
        print(f"cluster/single QPS ratio: {speedup:.2f}x")
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


def _build_ingest_side(args, backend):
    """(pipe, updater, shipper) for ``serve-http --ingest-wal``.

    All three are ``None`` without ``--ingest-wal``; the shipper is
    ``None`` without ``--ship-feed``.

    Seeds the updater's sliding-window store by regenerating the query
    log the snapshot was fitted on (profile/seed come from the snapshot
    manifest), warm-starts an :class:`IncrementalShoal` from the loaded
    model, replays any retained WAL from a previous run, and wires a
    :class:`GenerationSwitch` over the serving backend so every new
    generation hot-swaps in with probe-query health checks.
    """
    if not args.ingest_wal:
        if getattr(args, "ship_feed", None):
            raise SystemExit(
                "--ship-feed requires --ingest-wal DIR: followers replay "
                "the primary's closed WAL segments"
            )
        return None, None, None
    if not args.load:
        raise SystemExit(
            "--ingest-wal requires --load DIR: the updater warm-starts "
            "from the model snapshot (cluster snapshots only carry the "
            "sharded halves)"
        )
    from repro.core.incremental import IncrementalShoal
    from repro.store.persistence import load_entity_categories, read_manifest
    from repro.streaming import (
        Generation,
        GenerationSwitch,
        IngestPipe,
        StreamingUpdater,
        WriteAheadLog,
    )

    meta = read_manifest(args.load).get("metadata", {})
    profile, seed = meta.get("profile"), meta.get("seed")
    if profile is None or seed is None:
        raise SystemExit(
            "--ingest-wal needs a snapshot written by 'fit --save' (its "
            "manifest records the --profile/--seed that regenerate the "
            "base query log)"
        )
    market = generate_marketplace(PROFILES[profile].with_seed(seed))
    model = backend.service.model
    cats = load_entity_categories(args.load) or _entity_categories(market)
    # These two knobs shape every refit; a replication feed ships them
    # so followers rebuild with byte-identical settings.
    retrain_every = 7
    max_day_skew = 2
    inc = IncrementalShoal.from_model(
        model, entity_categories=cats, retrain_every=retrain_every
    )

    probes = [
        q.text
        for q in market.query_log.queries
        if q.intent_kind == "scenario"
    ][:4]
    # The snapshot model is the rollback baseline: a first generation
    # failing its health check restores the tier to what it serves now.
    baseline = Generation(
        number=0,
        model=model,
        entity_categories=cats,
        last_day=market.query_log.days()[-1],
    )
    switch = GenerationSwitch(
        probe_queries=probes, baseline=baseline
    ).attach(backend, name="http-backend")
    wal = WriteAheadLog(args.ingest_wal, fsync=args.ingest_fsync)
    pipe = IngestPipe(
        wal,
        max_queue=args.ingest_queue,
        overflow=args.ingest_overflow,
    )
    drift_gate = None
    if getattr(args, "drift_threshold", None) is not None:
        from repro.analytics import DriftMonitor

        drift_gate = DriftMonitor(threshold=args.drift_threshold)
    shipper = None
    generations_dir = args.generations
    if getattr(args, "ship_feed", None):
        import tempfile

        from repro.replication import SegmentShipper

        if generations_dir is None:
            # The shipper encodes deltas between on-disk generation
            # snapshots, so shipping implies persisting them.
            generations_dir = tempfile.mkdtemp(prefix="shoal-generations-")
        shipper = SegmentShipper(
            wal,
            args.ship_feed,
            base_snapshot_dir=args.load,
            manifest={
                "profile": profile,
                "seed": seed,
                "base_last_day": market.query_log.days()[-1],
                "retrain_every": retrain_every,
                "max_day_skew": max_day_skew,
                "min_batch_events": args.ingest_batch_events // 4 or 1,
            },
        )
        shipper.initialise()
    updater = StreamingUpdater(
        inc,
        pipe,
        switch=switch,
        generations_dir=generations_dir,
        batch_max_events=args.ingest_batch_events,
        batch_max_age_s=args.ingest_batch_age_s,
        min_batch_events=args.ingest_batch_events // 4 or 1,
        max_day_skew=max_day_skew,
        drift_gate=drift_gate,
        on_generation=None if shipper is None else shipper.publish_generation,
    )
    updater.seed_log(market.query_log)
    recovered = updater.recover()
    if recovered:
        print(f"recovered {recovered} events from the WAL at {args.ingest_wal}")
    return pipe, updater, shipper


def _build_analytics_side(args, backend, pipe):
    """(engine, tailer) for ``serve-http --analytics-db`` (None,None
    without). The tailer streams the same WAL the ingest pipe appends
    to into an isolated SQLite replica; queries against it can never
    contend with the serving structures."""
    if not args.analytics_db:
        return None, None
    if not args.ingest_wal:
        raise SystemExit(
            "--analytics-db requires --ingest-wal DIR: the analytics "
            "store is a replica of the write-ahead log"
        )
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
    catches background work (updater folds, shipper publishes, follower
    replays) as ``bg-N`` root traces. ``--trace-capacity 0`` disables
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


def _run_server(server, what: str, surface: str, *, on_stop=None) -> int:
    """Start ``server``, print its banner, and serve until Ctrl-C;
    ``on_stop`` runs just before the server shuts down."""
    server.start()  # binds the port so the banner can name it
    print(
        f"serving {what} on {server.url} ({surface}; Ctrl-C to stop)",
        flush=True,
    )
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
    pipe, updater, shipper = _build_ingest_side(args, backend)
    if updater is not None:
        # The gateway's result cache must drop on each hot-swap too.
        updater.switch.attach(gateway)
        updater.start()
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
        updater=updater,
        analytics_engine=analytics_engine,
        analytics_tailer=analytics_tailer,
        default_timeout_ms=args.deadline_ms,
        coalesce_max_events=args.coalesce_events,
        coalesce_max_delay_ms=args.coalesce_delay_ms,
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
        on_stop=None if coordinator_stop is None else coordinator_stop.set,
    )


def _cmd_serve_follower(args) -> int:
    """Serve reads from a replication feed, swapping on epoch bumps."""
    import tempfile

    from repro.api import AsyncShoalServer
    from repro.replication import Follower

    _check_cache_flags(args)
    workdir = args.workdir or tempfile.mkdtemp(prefix="shoal-follower-")
    follower = Follower(
        args.feed,
        workdir,
        follower_id=args.id,
        n_shards=args.shards,
    )
    backend = follower.bootstrap()
    tracer = _build_tracer(args)
    gateway = _build_gateway(args, backend)
    built = follower.catch_up(timeout_s=args.catch_up_s)
    if built:
        print(f"caught up: rebuilt {built} generations from {args.feed}")
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


def _cmd_ingest(args) -> int:
    """The offline end-to-end of the streaming write path."""
    import dataclasses as _dc

    from repro.core.incremental import IncrementalShoal
    from repro.streaming import (
        Generation,
        GenerationSwitch,
        IngestPipe,
        StreamingUpdater,
        WriteAheadLog,
    )

    _check_load_flags(args)
    if args.load:
        raise SystemExit(
            "ingest fits its own base window from the generated log; "
            "--load is not supported here (use serve-http --ingest-wal "
            "to stream into a loaded snapshot)"
        )
    if args.queue_size < args.batch_events:
        raise SystemExit(
            f"--queue-size {args.queue_size} must be >= --batch-events "
            f"{args.batch_events}: the submit loop only drains once per "
            "batch, so a smaller queue is guaranteed to overflow"
        )
    base_profile = PROFILES[args.profile].with_seed(args.seed)
    window = ShoalConfig().window_days
    total_days = window + args.live_days
    market = generate_marketplace(
        _dc.replace(
            base_profile,
            query_log=_dc.replace(
                base_profile.query_log, n_days=total_days
            ),
        )
    )
    titles = {e.entity_id: e.title for e in market.catalog.entities}
    query_texts = {q.query_id: q.text for q in market.query_log.queries}
    cats = _entity_categories(market)

    config = ShoalConfig()
    if args.alpha is not None:
        config = config.with_alpha(args.alpha)
    inc = IncrementalShoal(config, titles, query_texts, cats)
    base_last_day = window - 1
    update = inc.advance(market.query_log, last_day=base_last_day)
    print(f"base {update.summary()}")

    backend = inc.backend()
    probes = [
        q.text
        for q in market.query_log.queries
        if q.intent_kind == "scenario"
    ][:4]
    baseline = Generation(
        number=0,
        model=update.model,
        entity_categories=cats,
        last_day=base_last_day,
    )
    switch = GenerationSwitch(
        probe_queries=probes, baseline=baseline
    ).attach(backend, name="read-tier")
    wal = WriteAheadLog(args.wal, fsync=args.fsync)
    pipe = IngestPipe(wal, max_queue=args.queue_size)
    updater = StreamingUpdater(
        inc,
        pipe,
        switch=switch,
        generations_dir=args.generations,
        batch_max_events=args.batch_events,
        batch_max_age_s=0.0,
        min_batch_events=1,
    )
    updater.seed_log(market.query_log.window(0, base_last_day))
    recovered = updater.recover()
    if recovered:
        print(f"recovered {recovered} events from a previous WAL")

    live = [
        e for e in market.query_log.events if e.day > base_last_day
    ]
    print(
        f"streaming {len(live)} live events from days "
        f"{base_last_day + 1}..{total_days - 1} through {args.wal} ..."
    )
    from repro.api import ApiError

    submitted = 0
    for e in live:
        payload = {
            "day": e.day,
            "user_id": e.user_id,
            "query_id": e.query_id,
            "clicked": list(e.clicked_entity_ids),
        }
        try:
            pipe.submit(payload)
        except ApiError as exc:
            if exc.code != "ingest_overloaded":
                raise
            # Backpressure from our own queue: drain a batch, retry.
            updater.run_once(timeout_s=0.0)
            pipe.submit(payload)
        submitted += 1
        if submitted % args.batch_events == 0:
            generation = updater.run_once(timeout_s=0.0)
            if generation is not None:
                print(f"  {generation.summary()}")
    while pipe.queue_depth():
        generation = updater.run_once(timeout_s=0.0)
        if generation is not None:
            print(f"  {generation.summary()}")
    final = updater.force_generation()
    if final is not None:
        print(f"  {final.summary()}")

    stats = updater.stats()
    print(
        f"ingested {stats.events_applied} events -> "
        f"{stats.generations} generations "
        f"({stats.swap_failures} swap failures); {wal.stats()['segments']} "
        f"WAL segments retained"
    )
    print(switch.stats())
    return 0 if stats.swap_failures == 0 and stats.generations > 0 else 1


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
        request = AnalyticsRequest(
            sql=args.sql or None,
            report=args.report or None,
            limit=args.limit,
            sample=args.sample,
        )
        try:
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
        "--ingest-queue", type=int, default=4096,
        help="bounded ingest-queue capacity before backpressure",
    )
    p_http.add_argument(
        "--ingest-overflow", default="shed",
        choices=["shed", "block", "drop_oldest"],
        help="what a full ingest queue does to new events",
    )
    p_http.add_argument(
        "--ingest-fsync", default="batch",
        choices=["always", "batch", "never"],
        help="WAL fsync policy (batch = once per micro-batch)",
    )
    p_http.add_argument(
        "--ingest-batch-events", type=int, default=64,
        help="micro-batch size the updater drains per cycle",
    )
    p_http.add_argument(
        "--ingest-batch-age-s", type=float, default=2.0,
        help="oldest a queued event may get before a partial batch runs",
    )
    p_http.add_argument(
        "--generations", default=None, metavar="DIR",
        help="persist each model generation as a versioned snapshot here",
    )
    p_http.add_argument(
        "--coalesce-events", type=int, default=64,
        help="async edge: flush coalesced ingest after this many events",
    )
    p_http.add_argument(
        "--coalesce-delay-ms", type=float, default=5.0,
        help="async edge: max ms a coalesced ingest event waits before "
             "its batch is flushed to the WAL",
    )
    p_http.add_argument(
        "--analytics-db", default=None, metavar="PATH",
        help="enable the HTAP analytics tier: SQLite replica of the "
             "WAL served at GET/POST /v1/analytics (requires "
             "--ingest-wal)",
    )
    p_http.add_argument(
        "--drift-threshold", type=float, default=None, metavar="FRAC",
        help="skip a generation rollout when at most this fraction of "
             "entities changed topic membership (0.0 = only skip "
             "identical partitions; default: never skip)",
    )
    p_http.add_argument(
        "--ship-feed", default=None, metavar="DIR",
        help="publish closed WAL segments + generation snapshot deltas "
             "into this replication feed directory and run the epoch "
             "coordinator over it (requires --ingest-wal)",
    )
    p_http.add_argument(
        "--ship-quorum", type=int, default=1,
        help="followers that must report a byte-identical rebuild "
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
        "--workdir", default=None, metavar="DIR",
        help="scratch directory for rebuilt generation snapshots "
             "(default: a fresh temp directory)",
    )
    p_follower.add_argument(
        "--id", default=None,
        help="stable follower identity in reports (default: random)",
    )
    _add_serve_flags(p_follower, port=8081)
    p_follower.add_argument(
        "--shards", type=int, default=1,
        help="serve through an n-shard cluster tier instead of a "
             "single service",
    )
    p_follower.add_argument(
        "--catch-up-s", type=float, default=60.0,
        help="max seconds to replay the feed before the port opens",
    )
    p_follower.set_defaults(func=_cmd_serve_follower)

    p_ingest = sub.add_parser(
        "ingest",
        help="stream live query events through the WAL-backed write path",
    )
    _add_common(p_ingest)
    p_ingest.add_argument(
        "--wal", required=True, metavar="DIR",
        help="write-ahead log directory (created if missing)",
    )
    p_ingest.add_argument(
        "--live-days", type=int, default=2,
        help="days of traffic to stream in after the base window",
    )
    p_ingest.add_argument(
        "--batch-events", type=int, default=256,
        help="micro-batch size per generation",
    )
    p_ingest.add_argument(
        "--queue-size", type=int, default=8192,
        help="bounded ingest-queue capacity",
    )
    p_ingest.add_argument(
        "--fsync", default="batch", choices=["always", "batch", "never"],
        help="WAL fsync policy",
    )
    p_ingest.add_argument(
        "--generations", default=None, metavar="DIR",
        help="persist each model generation as a versioned snapshot here",
    )
    p_ingest.set_defaults(func=_cmd_ingest)

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

    p_replay = sub.add_parser(
        "replay", help="replay a traffic workload against service/cluster"
    )
    _add_common(p_replay)
    p_replay.add_argument("--requests", type=int, default=1000)
    p_replay.add_argument(
        "--traffic", default="bursty",
        choices=["steady", "bursty", "drifting", "adversarial"],
        help="workload profile",
    )
    p_replay.add_argument("--zipf", type=float, default=1.1)
    p_replay.add_argument(
        "--variants", type=int, default=1,
        help="distinct textual variants per base query",
    )
    p_replay.add_argument(
        "--warmup", type=int, default=None,
        help="unrecorded warm-up requests (default: requests/10)",
    )
    p_replay.add_argument("-k", type=int, default=5)
    p_replay.add_argument("--shards", type=int, default=2)
    p_replay.add_argument(
        "--cluster-dir", default=None, metavar="DIR",
        help="load the cluster from a 'serve-cluster --save-shards' dir",
    )
    p_replay.add_argument(
        "--backend", default=None, metavar="URI",
        help="replay against a backend URI: snapshot:DIR, cluster:DIR, "
             "or http://host:port (overrides --target)",
    )
    p_replay.add_argument(
        "--target", default="cluster", choices=["single", "cluster", "both"],
        help="what to replay against",
    )
    p_replay.add_argument(
        "--arrival", default="closed", choices=["closed", "open"],
        help="load model: 'closed' paces on responses (latency-biased "
             "under saturation), 'open' schedules request i at t0+i/rate "
             "regardless of how the target is doing",
    )
    p_replay.add_argument(
        "--rate", type=float, default=None, metavar="RPS",
        help="open-loop arrival rate in requests/s (required with "
             "--arrival open)",
    )
    p_replay.add_argument(
        "--concurrency", type=int, default=1,
        help="worker threads driving the target",
    )
    p_replay.set_defaults(func=_cmd_replay)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
