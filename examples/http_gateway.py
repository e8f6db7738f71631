"""Serve SHOAL over HTTP and query it with the typed client.

The gateway API (:mod:`repro.api`) separates *what* is asked — typed
``SearchRequest`` / ``RecommendRequest`` / ``BatchRequest`` payloads —
from *which tier* answers and *how* it is reached. This example walks
the full edge stack:

1. fit on the tiny profile and wrap the model in a
   :class:`ServiceBackend`;
2. compose the default middleware stack (metrics + result cache) plus
   a token-bucket rate limit and a per-request deadline;
3. expose it with :class:`AsyncShoalServer` on an ephemeral port;
4. query it three ways — the typed :class:`ShoalClient`, the same
   client pointed at the in-process backend (identical answers,
   enforced), and a raw ``urllib`` POST showing the wire JSON a curl
   user would see;
5. print the gateway's unified p50/p95/p99 + error-code metrics.

Run:  python examples/http_gateway.py
"""

import json
import urllib.request

from repro import ShoalPipeline, generate_marketplace
from repro.api import (
    ApiError,
    AsyncShoalServer,
    Gateway,
    SearchRequest,
    ServiceBackend,
    ShoalClient,
    default_middlewares,
)
from repro.data.marketplace import PROFILES


def main() -> None:
    market = generate_marketplace(PROFILES["tiny"])
    model = ShoalPipeline().fit(market)
    backend = ServiceBackend.from_model(
        model,
        entity_categories={
            e.entity_id: e.category_id for e in market.catalog.entities
        },
    )
    gateway = Gateway(
        backend,
        default_middlewares(cache_size=1024, rate_limit=500, deadline_ms=2000),
    )
    query = next(
        q.text for q in market.query_log.queries if q.intent_kind == "scenario"
    )

    with AsyncShoalServer(gateway, port=0) as server:
        print(f"gateway listening on {server.url}\n")

        # -- 1. the typed client over HTTP --------------------------------
        remote = ShoalClient(server.url)
        response = remote.search(SearchRequest(query=query, k=3))
        print(f"ShoalClient over HTTP, query {query!r}:")
        for hit in response.hits:
            print(f"  topic {hit.topic_id}  score={hit.score:7.2f}  {hit.label}")

        # -- 2. the same client, in-process: identical answers ------------
        local = ShoalClient(backend)
        assert local.search(SearchRequest(query=query, k=3)) == response
        print("\nin-process client answers are identical to the HTTP edge")

        # -- 3. the raw wire, as curl would see it ------------------------
        req = urllib.request.Request(
            f"{server.url}/v1/search",
            data=json.dumps({"version": 1, "query": query, "k": 1}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(req, timeout=5) as raw:
            print(f"\nraw JSON: {raw.read().decode()[:120]}...")

        # -- 4. contract errors are stable codes, not tracebacks ----------
        try:
            remote.search(SearchRequest(query=query, k=10_000))
        except ApiError as err:
            print(f"\nk=10000 -> {err.code} (HTTP {err.http_status}): {err}")

        print("\ngateway stats:")
        print(json.dumps(remote.stats(), indent=2)[:600])


if __name__ == "__main__":
    main()
