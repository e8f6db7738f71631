"""F7 — gateway API dispatch overhead on the serving path.

The gateway contract only earns its keep if it is effectively free on
the hot path: a typed request through adapter + middleware stack must
cost within 1.3x of calling the raw engine's ``search_topics``
directly. Both sides compute the answer — the engine holds no result
cache, and the gateway side runs the standard stack with its cache
stage off — so the ratio is dispatch overhead alone; the absolute cost
of a full-stack cache *hit* is recorded by
``test_bench_full_stack_dispatch``.

The gated statistic changed together with the subjects, so ratios from
before and after PR 14 are not comparable. Until PR 13 the gate was a
ratio of medians (9 x 2000 ops per side, one side after the other) over
two ~1 us cache hits. Both sides now do tens of microseconds of BM25
work and the box's speed drifts between the two sampling runs by more
than the overhead under test: on the new subjects the ratio of medians
read 1.01-1.39x over 8 back-to-back repeats, the median of 21 adjacent
per-pair ratios (1000 ops per side) 1.22-1.25x over the same repeats.
The gate is on the latter; ``GATE_RATIO`` is unchanged.
"""

import statistics
import time

import pytest

from repro.api import Gateway, SearchRequest, ServiceBackend, default_middlewares

OPS_PER_SAMPLE = 1_000
SAMPLES = 21  # median-of-21 aggregate timings per target
GATE_RATIO = 1.3


@pytest.fixture(scope="module")
def api_backend(bench_model, bench_marketplace):
    return ServiceBackend.from_model(
        bench_model,
        entity_categories={
            e.entity_id: e.category_id
            for e in bench_marketplace.catalog.entities
        },
    )


@pytest.fixture(scope="module")
def scenario_query(bench_marketplace):
    return next(
        q.text
        for q in bench_marketplace.query_log.queries
        if q.intent_kind == "scenario"
    )


def _sample_seconds(fn) -> float:
    t0 = time.perf_counter()
    for _ in range(OPS_PER_SAMPLE):
        fn()
    return time.perf_counter() - t0


def _median_seconds(fn) -> float:
    return statistics.median(_sample_seconds(fn) for _ in range(SAMPLES))


def test_bench_gateway_dispatch_overhead(
    api_backend, scenario_query, capsys
):
    """Typed dispatch of a computed search must stay under 1.3x the
    raw engine computing the same search."""
    raw = api_backend.service
    # The default stack minus its cache stage: like compared with like.
    gateway = Gateway(api_backend, default_middlewares(cache_size=0))
    request = SearchRequest(query=scenario_query, k=5)

    expected = raw.search_topics(scenario_query, 5)
    assert list(gateway.search(request).hits) == expected

    # Both sides cost tens of microseconds of real work, and the box's
    # speed drifts by more than the overhead under test: sample them in
    # adjacent pairs and gate on the median of the per-pair ratios.
    pairs = [
        (
            _sample_seconds(lambda: raw.search_topics(scenario_query, 5)),
            _sample_seconds(lambda: gateway.search(request)),
        )
        for _ in range(SAMPLES)
    ]
    raw_s = statistics.median(r for r, _ in pairs)
    gateway_s = statistics.median(g for _, g in pairs)
    ratio = statistics.median(g / r for r, g in pairs)

    with capsys.disabled():
        print(
            f"\n[gateway overhead] raw={raw_s / OPS_PER_SAMPLE * 1e6:.1f}us "
            f"gateway={gateway_s / OPS_PER_SAMPLE * 1e6:.1f}us "
            f"ratio={ratio:.2f}x (gate {GATE_RATIO}x)"
        )
    assert ratio < GATE_RATIO, (
        f"gateway dispatch is {ratio:.2f}x the raw engine "
        f"(gate {GATE_RATIO}x): raw={raw_s:.4f}s gateway={gateway_s:.4f}s"
    )


def test_bench_full_stack_dispatch(api_backend, scenario_query, capsys):
    """Rate limit + deadline + cache + metrics, absolute cost of a cache
    hit on record.

    No hard gate beyond sanity — the full stack adds a token-bucket
    refill and two clock reads per request — but the per-dispatch cost
    must stay in the microsecond regime, nowhere near the engine's
    cold-path milliseconds.
    """
    gateway = Gateway(
        api_backend,
        default_middlewares(
            cache_size=4096, rate_limit=1e9, deadline_ms=10_000
        ),
    )
    request = SearchRequest(query=scenario_query, k=5)
    gateway.search(request)  # warm

    stack_s = _median_seconds(lambda: gateway.search(request))
    per_dispatch_us = stack_s / OPS_PER_SAMPLE * 1e6
    with capsys.disabled():
        print(f"\n[full-stack dispatch] {per_dispatch_us:.1f}us/request")
    assert per_dispatch_us < 500, (
        f"full middleware stack costs {per_dispatch_us:.0f}us per warm "
        "dispatch; expected well under 500us"
    )
