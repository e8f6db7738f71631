"""F5 — serving latency for the four demo scenarios (paper Fig. 5).

The demo paper's GUI serves interactive exploration: Query→Topic,
Topic→Sub-topic, Topic→Category→Item, Category→Category. The paper
claims "millions of searches per day" — ~12 QPS average, far higher at
peak. This bench measures single-threaded latency per scenario so the
claim can be sanity-checked against the simulated serving stack.
"""

import pytest

from repro._util import format_table
from repro.api import Gateway, SearchRequest, ServiceBackend


@pytest.fixture(scope="module")
def backend(bench_model, bench_marketplace):
    return ServiceBackend.from_model(
        bench_model,
        entity_categories={
            e.entity_id: e.category_id
            for e in bench_marketplace.catalog.entities
        },
    )


@pytest.fixture(scope="module")
def service(backend):
    # These benches time the raw engine behind the gateway adapter
    # (it holds no result cache: every call computes); gateway dispatch
    # overhead is gated in test_bench_api.py.
    return backend.service


@pytest.fixture(scope="module")
def scenario_query(bench_marketplace):
    return next(
        q.text
        for q in bench_marketplace.query_log.queries
        if q.intent_kind == "scenario"
    )


def test_bench_scenario_a_query_to_topic(benchmark, backend, scenario_query):
    """Repeated identical searches through the default gateway — the
    cached serving hot path (a result-cache hit)."""
    gateway = Gateway(backend)
    response = benchmark(
        gateway.search, SearchRequest(query=scenario_query, k=5)
    )
    assert response.hits
    assert gateway.cache_stats().misses == 1


def test_bench_scenario_a_cold(benchmark, service, scenario_query):
    """Computed search — inverted-index pruning, no cache in the way."""
    hits = benchmark(service.search_topics, scenario_query, 5)
    assert hits


def test_bench_search_topics_batch(benchmark, service, bench_marketplace):
    """A panel-sized batch of distinct queries through the batch API."""
    queries = [
        q.text for q in bench_marketplace.query_log.queries[:32]
    ]
    results = benchmark(service.search_topics_batch, queries, 5)
    assert len(results) == len(queries)


def test_bench_recommend_batch(benchmark, service, bench_marketplace):
    queries = [
        q.text
        for q in bench_marketplace.query_log.queries
        if q.intent_kind == "scenario"
    ][:16]
    slates = benchmark(service.recommend_batch, queries, 8)
    assert len(slates) == len(queries)


def test_bench_related_topics_cold(benchmark, service):
    """Computed related-topics — precomputed token sets + candidate pruning."""
    root = service.taxonomy.root_topics()[0]
    benchmark(service.related_topics, root.topic_id, 6)


def test_bench_scenario_b_topic_to_subtopic(benchmark, service):
    roots = service.taxonomy.root_topics()
    target = next((t for t in roots if t.child_ids), roots[0])
    benchmark(service.subtopics, target.topic_id)


def test_bench_scenario_c_topic_category_items(benchmark, service):
    root = next(t for t in service.taxonomy.root_topics() if t.category_ids)
    cid = root.category_ids[0]
    benchmark(service.entities_of_topic_category, root.topic_id, cid)


def test_bench_scenario_d_category_to_category(benchmark, service, bench_model):
    cats = bench_model.correlations.categories()
    if not cats:
        pytest.skip("no correlated categories on this corpus")
    hits = benchmark(service.related_categories, cats[0], 8)
    assert hits


def test_bench_serving_summary(benchmark, service, scenario_query, bench_model, capfd):
    """Qualitative Fig. 5 check: print one worked example per scenario."""
    import time

    benchmark(service.search_topics, scenario_query, 3)

    rows = []
    t0 = time.perf_counter()
    hits = service.search_topics(scenario_query, 3)
    rows.append(["A Query→Topic", scenario_query, f"{len(hits)} topics",
                 f"{(time.perf_counter() - t0) * 1e3:.2f} ms"])
    if hits:
        topic_id = hits[0].topic_id
        t0 = time.perf_counter()
        subs = service.subtopics(topic_id)
        rows.append(["B Topic→Sub-topic", service.taxonomy.topic(topic_id).label(),
                     f"{len(subs)} sub-topics",
                     f"{(time.perf_counter() - t0) * 1e3:.2f} ms"])
        cats = service.categories_of_topic(topic_id)
        if cats:
            t0 = time.perf_counter()
            items = service.entities_of_topic_category(topic_id, cats[0])
            rows.append(["C Topic→Category→Item", f"category {cats[0]}",
                         f"{len(items)} items",
                         f"{(time.perf_counter() - t0) * 1e3:.2f} ms"])
    corr_cats = bench_model.correlations.categories()
    if corr_cats:
        t0 = time.perf_counter()
        related = service.related_categories(corr_cats[0], 8)
        rows.append(["D Category→Category", f"category {corr_cats[0]}",
                     f"{len(related)} related",
                     f"{(time.perf_counter() - t0) * 1e3:.2f} ms"])
    with capfd.disabled():
        print("\n\n== F5: the four demo scenarios, one worked example each ==")
        print(format_table(["scenario", "input", "output", "latency"], rows))
