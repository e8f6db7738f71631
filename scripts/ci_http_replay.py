#!/usr/bin/env python
"""CI gate for the HTTP edge: zero 5xx + answer transparency.

Replays N real marketplace queries through :class:`ShoalClient` against
a running ``serve-http`` gateway — each as a search and as a recommend,
plus every run of 8 consecutive queries as one batch (alternately of
kind search and recommend) — and fails if

* any request dies with a 5xx-class :class:`ApiError`
  (``backend_error`` / ``unavailable`` / ``deadline_exceeded``), or
* any HTTP answer differs from the in-process backend opened on a
  snapshot of the same model (byte-identical transparency), or
* the gateway stats endpoint reports any 5xx-coded errors server-side,
  or no gateway cache hits — the steady profile repeats queries, so
  zero hits means the gateway's cache stage went unexercised (and the
  answers it served unchecked).

Usage::

    python scripts/ci_http_replay.py --url http://127.0.0.1:8080 \
        --snapshot /tmp/snap --profile small --requests 200
"""

from __future__ import annotations

import sys
import time

from _soak import gate_parser, wait_healthy

from repro.api import (
    ApiError,
    BatchRequest,
    ERROR_CODES,
    RecommendRequest,
    SearchRequest,
    ShoalClient,
    open_backend,
)
from repro.data.marketplace import PROFILES, generate_marketplace
from repro.serving import WorkloadConfig, build_workload

#: Queries per batch request.
BATCH_SIZE = 8


def main(argv=None) -> int:
    parser = gate_parser(__doc__)
    parser.add_argument(
        "--snapshot", required=True,
        help="a snapshot of the model the server serves (the server may "
        "load a copy pruned to its serving files)",
    )
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--startup-timeout", type=float, default=60.0)
    args = parser.parse_args(argv)

    remote = ShoalClient(args.url, timeout=30.0)
    wait_healthy(remote, timeout_s=args.startup_timeout)
    local = open_backend(f"snapshot:{args.snapshot}")

    market = generate_marketplace(PROFILES[args.profile].with_seed(args.seed))
    workload = build_workload(
        market.query_log.queries,
        market.scenarios,
        WorkloadConfig(
            n_requests=args.requests, profile="steady", seed=args.seed
        ),
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

    five_xx = 0
    mismatches = 0
    client_errors = 0
    t0 = time.perf_counter()
    for op, request in requests:
        try:
            got = getattr(remote, op)(request)
        except ApiError as exc:
            if ERROR_CODES[exc.code] >= 500:
                five_xx += 1
                print(f"5xx [{exc.code}] for {op} {request}: {exc}")
            else:
                client_errors += 1
                print(f"4xx [{exc.code}] for {op} {request}: {exc}")
            continue
        if got != getattr(local, op)(request):
            mismatches += 1
            print(f"TRANSPARENCY VIOLATION for {op} {request}")
    elapsed = time.perf_counter() - t0

    server_5xx = 0
    stats = remote.stats()
    for code, count in (stats.get("errors") or {}).items():
        if ERROR_CODES.get(code, 500) >= 500:
            server_5xx += int(count)
    cache_hits = int((stats.get("gateway_cache") or {}).get("hits", 0))

    n_batches = sum(op == "batch" for op, _ in requests)
    print(
        f"replayed {len(workload)} queries as {len(requests)} requests "
        f"({n_batches} batches of {BATCH_SIZE}) in {elapsed:.2f}s "
        f"({len(requests) / max(elapsed, 1e-9):,.0f} requests/s over HTTP): "
        f"{five_xx} 5xx, {client_errors} 4xx, {mismatches} mismatches, "
        f"{server_5xx} server-side 5xx, {cache_hits} gateway cache hits"
    )
    if five_xx or mismatches or client_errors or server_5xx or not cache_hits:
        print("FAIL")
        return 1
    print("OK: zero 5xx and every HTTP answer matched in-process")
    return 0


if __name__ == "__main__":
    sys.exit(main())
