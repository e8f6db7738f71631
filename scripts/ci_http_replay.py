#!/usr/bin/env python
"""CI gate for the HTTP edge: zero 5xx + answer transparency.

Sends N queries in the benchmark ledger's hot shape (Zipf draws over
four spellings of every logged query) to a running ``serve-http``
gateway — each as a search and as a recommend, plus every run of 8
consecutive queries as one batch (alternately of kind search and
recommend) — then a few never-repeating search batches of 64 in the
ledger's cold shape (``cold_query``; they miss every cache, and on a
cluster most queries are merged from several shards), and fails if

* any request dies with a 5xx-class :class:`ApiError`
  (``backend_error`` / ``unavailable`` / ``deadline_exceeded``), or
* any HTTP response body differs, byte for byte, from
  ``_json_bytes(local.to_dict())`` — ``json.dumps`` of the answer the
  in-process backend opened on a snapshot of the same model gives —
  so a changed separator or float text fails it as surely as a changed
  answer, or
* the gateway stats endpoint reports any 5xx-coded errors server-side,
  or no gateway cache hits — the Zipf head repeats queries, so
  zero hits means the gateway's cache stage went unexercised (and the
  answers it served unchecked).

The server may serve the snapshot itself (``--load``) or a cluster
sharded from it (``--cluster-dir``): sharded answers must equal the
unsharded snapshot's.

Usage::

    python scripts/ci_http_replay.py --url http://127.0.0.1:8080 \
        --snapshot /tmp/snap --profile small --requests 200
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request

import numpy as np
from _soak import gate_parser, hot_reads, wait_healthy

from repro.api import (
    ApiError,
    BatchRequest,
    ERROR_CODES,
    RecommendRequest,
    SearchRequest,
    ShoalClient,
    open_backend,
)
from repro.api.http import _json_bytes
from repro.data.marketplace import PROFILES, generate_marketplace
from workloads import cold_query

#: Queries per hot batch request.
BATCH_SIZE = 8
#: Cold search batches sent after the hot requests, and their size
#: (the ledger's ``read-cold-batch`` shape).
COLD_BATCHES = 8
COLD_BATCH_SIZE = 64


def post_raw(url: str, endpoint: str, request) -> tuple:
    """``(status, body bytes)`` of one contract request over HTTP."""
    http_request = urllib.request.Request(
        f"{url}/v1/{endpoint}",
        data=json.dumps(request.to_dict()).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(http_request, timeout=30.0) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def main(argv=None) -> int:
    parser = gate_parser(__doc__)
    parser.add_argument(
        "--snapshot", required=True,
        help="a snapshot of the model the server serves (the server may "
        "load a copy pruned to its serving files, or a cluster sharded "
        "from it)",
    )
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--startup-timeout", type=float, default=60.0)
    args = parser.parse_args(argv)

    remote = ShoalClient(args.url, timeout=30.0)
    wait_healthy(remote, timeout_s=args.startup_timeout)
    local = open_backend(f"snapshot:{args.snapshot}")

    market = generate_marketplace(PROFILES[args.profile].with_seed(args.seed))
    workload = hot_reads(
        market, np.random.default_rng(args.seed), args.requests
    )

    requests = []
    for query in workload:
        requests.append(("search", SearchRequest(query=query, k=args.k)))
        requests.append(
            ("recommend", RecommendRequest(query=query, k=args.k))
        )
    for i in range(0, len(workload) - BATCH_SIZE + 1, BATCH_SIZE):
        kind = ("search", "recommend")[(i // BATCH_SIZE) % 2]
        requests.append(("batch", BatchRequest(
            queries=workload[i:i + BATCH_SIZE], k=args.k, kind=kind,
        )))
    texts = [q.text for q in market.query_log.queries]
    cold_rng = np.random.default_rng(args.seed)
    for b in range(COLD_BATCHES):
        requests.append(("batch", BatchRequest(
            queries=tuple(
                cold_query(texts, cold_rng, b * COLD_BATCH_SIZE + j)
                for j in range(COLD_BATCH_SIZE)
            ),
            k=args.k,
        )))

    five_xx = 0
    mismatches = 0
    client_errors = 0
    t0 = time.perf_counter()
    for op, request in requests:
        status, body = post_raw(args.url, op, request)
        if status != 200:
            try:
                err = ApiError.from_dict(json.loads(body.decode("utf-8")))
            except (ApiError, ValueError):
                err = ApiError("backend_error", f"HTTP {status}: {body[:200]!r}")
            if ERROR_CODES[err.code] >= 500:
                five_xx += 1
                print(f"5xx [{err.code}] for {op} {request}: {err}")
            else:
                client_errors += 1
                print(f"4xx [{err.code}] for {op} {request}: {err}")
            continue
        if body != _json_bytes(getattr(local, op)(request).to_dict()):
            mismatches += 1
            print(f"TRANSPARENCY VIOLATION (response bytes) for {op} {request}")
    elapsed = time.perf_counter() - t0

    server_5xx = 0
    stats = remote.stats()
    for code, count in (stats.get("errors") or {}).items():
        if ERROR_CODES.get(code, 500) >= 500:
            server_5xx += int(count)
    cache_hits = int((stats.get("gateway_cache") or {}).get("hits", 0))

    n_batches = sum(op == "batch" for op, _ in requests) - COLD_BATCHES
    print(
        f"replayed {len(workload)} queries as {len(requests)} requests "
        f"({n_batches} batches of {BATCH_SIZE}, {COLD_BATCHES} cold "
        f"batches of {COLD_BATCH_SIZE}) in {elapsed:.2f}s "
        f"({len(requests) / max(elapsed, 1e-9):,.0f} requests/s over HTTP): "
        f"{five_xx} 5xx, {client_errors} 4xx, {mismatches} mismatches, "
        f"{server_5xx} server-side 5xx, {cache_hits} gateway cache hits"
    )
    if five_xx or mismatches or client_errors or server_5xx or not cache_hits:
        print("FAIL")
        return 1
    print("OK: zero 5xx and every HTTP response body matched in-process")
    return 0


if __name__ == "__main__":
    sys.exit(main())
