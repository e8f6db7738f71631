#!/usr/bin/env python
"""CI gate for the HTTP edge: zero 5xx + answer transparency.

Replays N real marketplace queries through :class:`ShoalClient` against
a running ``serve-http`` gateway and fails if

* any request dies with a 5xx-class :class:`ApiError`
  (``backend_error`` / ``unavailable`` / ``deadline_exceeded``), or
* any HTTP answer differs from the in-process backend opened on a
  snapshot of the same model (byte-identical transparency), or
* the gateway stats endpoint reports any 5xx-coded errors server-side,
  or no gateway cache hits — the steady profile repeats queries, and a
  hit is answered on the edge's event loop, so zero hits means that
  path went unexercised (and its answers unchecked).

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
    ERROR_CODES,
    SearchRequest,
    ShoalClient,
    open_backend,
)
from repro.data.marketplace import PROFILES, generate_marketplace
from repro.serving import WorkloadConfig, build_workload


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

    five_xx = 0
    mismatches = 0
    client_errors = 0
    t0 = time.perf_counter()
    for query in workload:
        request = SearchRequest(query=query, k=args.k)
        try:
            got = remote.search(request)
        except ApiError as exc:
            if ERROR_CODES[exc.code] >= 500:
                five_xx += 1
                print(f"5xx [{exc.code}] for {query!r}: {exc}")
            else:
                client_errors += 1
                print(f"4xx [{exc.code}] for {query!r}: {exc}")
            continue
        if got != local.search(request):
            mismatches += 1
            print(f"TRANSPARENCY VIOLATION for {query!r}")
    elapsed = time.perf_counter() - t0

    server_5xx = 0
    stats = remote.stats()
    for code, count in (stats.get("errors") or {}).items():
        if ERROR_CODES.get(code, 500) >= 500:
            server_5xx += int(count)
    cache_hits = int((stats.get("gateway_cache") or {}).get("hits", 0))

    print(
        f"replayed {len(workload)} queries in {elapsed:.2f}s "
        f"({len(workload) / max(elapsed, 1e-9):,.0f} qps over HTTP): "
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
