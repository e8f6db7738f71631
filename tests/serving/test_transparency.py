"""Property suite: sharding is answer-transparent.

The sampled archetype of this PR — prove with property-based tests
that for random fitted models and random queries, the cluster router
returns *byte-identical* results to the unsharded service, for every
shard count in {1, 2, 4}.

Fitted models are deterministic functions of their marketplace seed,
so a small pool of prefit models (cached at module level) gives
hypothesis genuinely different taxonomies/vocabularies to draw from
without refitting per example.
"""

import functools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import ShoalConfig
from repro.core.pipeline import ShoalPipeline
from repro.core.serving import ShoalService
from repro.data.marketplace import PROFILES, generate_marketplace
from repro.serving import ClusterRouter

MODEL_SEEDS = (0, 1, 2)
SHARD_COUNTS = (1, 2, 4)


@functools.lru_cache(maxsize=None)
def world(seed: int):
    """(marketplace, model, unsharded service) for one seed."""
    market = generate_marketplace(PROFILES["tiny"].with_seed(seed))
    model = ShoalPipeline(ShoalConfig()).fit(market)
    cats = {
        e.entity_id: e.category_id for e in market.catalog.entities
    }
    return market, model, ShoalService(model.serving(cats))


@functools.lru_cache(maxsize=None)
def router(seed: int, n_shards: int) -> ClusterRouter:
    market, model, _ = world(seed)
    cats = {
        e.entity_id: e.category_id for e in market.catalog.entities
    }
    return ClusterRouter.from_model(
        model, n_shards, entity_categories=cats
    )


@st.composite
def query_strings(draw, seed: int) -> str:
    """Real log queries, token remixes of them, and raw noise."""
    market, _, _ = world(seed)
    texts = [q.text for q in market.query_log.queries]
    kind = draw(st.integers(min_value=0, max_value=2))
    if kind == 0:
        return draw(st.sampled_from(texts))
    if kind == 1:
        tokens = sorted({t for q in texts for t in q.split()})
        picked = draw(
            st.lists(st.sampled_from(tokens), min_size=1, max_size=4)
        )
        return " ".join(picked)
    return draw(
        st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz0123456789 -!,",
            min_size=0,
            max_size=30,
        )
    )


common_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(
    seed=st.sampled_from(MODEL_SEEDS),
    data=st.data(),
    k=st.integers(min_value=1, max_value=8),
)
@common_settings
def test_search_topics_transparent(seed, data, k):
    _, _, service = world(seed)
    query = data.draw(query_strings(seed))
    expected = service.search_topics(query, k)
    for n_shards in SHARD_COUNTS:
        got = router(seed, n_shards).search_topics(query, k)
        assert got == expected, (
            f"shards={n_shards} query={query!r} k={k}"
        )
        # Byte-identical, not merely equal as dataclasses.
        assert repr(got) == repr(expected)


@given(
    seed=st.sampled_from(MODEL_SEEDS),
    data=st.data(),
    k=st.integers(min_value=1, max_value=12),
)
@common_settings
def test_recommendations_transparent(seed, data, k):
    _, _, service = world(seed)
    query = data.draw(query_strings(seed))
    expected = service.recommend_entities_for_query(query, k)
    for n_shards in SHARD_COUNTS:
        got = router(seed, n_shards).recommend_entities_for_query(
            query, k
        )
        assert got == expected, (
            f"shards={n_shards} query={query!r} k={k}"
        )


@given(
    seed=st.sampled_from(MODEL_SEEDS),
    data=st.data(),
    k=st.integers(min_value=1, max_value=8),
)
@common_settings
def test_batch_apis_transparent(seed, data, k):
    """A batch answers every query exactly as the one-query call does,
    on the service and on every cluster: a router batch probes each
    shard once for all its queries, so a duplicate, a query with no
    tokens and a pure miss share probes with real queries."""
    _, _, service = world(seed)
    queries = data.draw(
        st.lists(query_strings(seed), min_size=0, max_size=6)
    )
    queries += data.draw(
        st.lists(
            st.sampled_from(["", "!! ,", "zq0 zx0"] + queries[:1]),
            max_size=3,
        )
    )
    queries = data.draw(st.permutations(queries))
    expected_search = [service.search_topics(q, k) for q in queries]
    expected_rec = [
        service.recommend_entities_for_query(q, k) for q in queries
    ]
    assert service.search_topics_batch(queries, k) == expected_search
    assert service.recommend_batch(queries, k) == expected_rec
    for n_shards in SHARD_COUNTS:
        r = router(seed, n_shards)
        got = r.search_topics_batch(queries, k)
        assert got == expected_search, f"shards={n_shards} k={k}"
        assert repr(got) == repr(expected_search)
        assert r.recommend_batch(queries, k) == expected_rec


@given(seed=st.sampled_from(MODEL_SEEDS), data=st.data())
@common_settings
def test_topic_local_scenarios_transparent(seed, data):
    """Hierarchy navigation and category listings match per topic."""
    _, model, service = world(seed)
    topic_ids = [t.topic_id for t in model.taxonomy.topics()]
    topic_id = data.draw(st.sampled_from(topic_ids))
    for n_shards in SHARD_COUNTS:
        r = router(seed, n_shards)
        assert r.subtopics(topic_id) == service.subtopics(topic_id)
        assert r.topic_path(topic_id) == service.topic_path(topic_id)
        assert r.categories_of_topic(topic_id) == (
            service.categories_of_topic(topic_id)
        )
        for cat in service.categories_of_topic(topic_id)[:3]:
            assert r.entities_of_topic_category(topic_id, cat) == (
                service.entities_of_topic_category(topic_id, cat)
            )
            assert r.related_categories(cat) == (
                service.related_categories(cat)
            )
