#!/usr/bin/env python
"""CI soak gate for the asyncio edge.

Drives mixed read+write traffic at a running
``serve-http --ingest-wal`` gateway from many concurrent keep-alive
connections — 10x the connection count the streaming soak uses — for
a fixed duration, and fails if

* any request answers with a 5xx status (``backend_error`` /
  ``unavailable`` / ``ingest_unavailable`` / ``deadline_exceeded``
  and friends) — load-shed 429s (``ingest_overloaded`` /
  ``rate_limited``) are expected behaviour and tracked, not fatal;
* any acked event is lost: the updater's ``applied_seq`` scraped from
  ``GET /v1/metrics`` must reach the last sequence number a client was
  acknowledged (zero lost events, coalescing included);
* the observability surface regressed: ``GET /v1/metrics?format=prom``
  must pass the strict OpenMetrics parser, the tracer must have
  sampled at least one trace, and ``GET /v1/trace`` must return a
  coherent span tree that also resolves by its ``request_id``
  (see :mod:`obs_gates`).

Usage::

    python scripts/ci_async_soak.py --url http://127.0.0.1:8473 \
        --profile small --seed 0 --duration 60 --connections 80
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse

from _soak import build_traffic, soak_parser, wait_healthy

from obs_gates import check_observability
from repro.api import ShoalClient

NONFATAL_STATUSES = {429}  # backpressure is behaviour, not breakage


def _host_port(url: str):
    parsed = urllib.parse.urlsplit(url)
    return parsed.hostname, parsed.port or 80


def _request(conn, method, path, payload=None):
    body = None if payload is None else json.dumps(payload).encode()
    headers = {} if body is None else {"Content-Type": "application/json"}
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read().decode() or "{}")


def main(argv=None) -> int:
    parser = soak_parser(__doc__, settle_what="the updater to drain")
    parser.add_argument(
        "--connections", type=int, default=80,
        help="concurrent keep-alive connections (10x the streaming soak)",
    )
    args = parser.parse_args(argv)

    _, reads, writes = build_traffic(args)
    host, port = _host_port(args.url)
    wait_healthy(ShoalClient(args.url, timeout=5.0), "async edge")

    deadline = time.monotonic() + args.duration
    lock = threading.Lock()
    totals = {"reads": 0, "writes": 0, "shed": 0, "last_seq": 0}
    fatal: list = []

    def worker(worker_id: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=30)
        i = worker_id  # desynchronize the per-connection streams
        try:
            while time.monotonic() < deadline:
                with lock:
                    if fatal:
                        return
                query = reads[i % len(reads)]
                status, body = _request(
                    conn, "POST", "/v1/search", {"query": query, "k": 5}
                )
                if status >= 500:
                    with lock:
                        fatal.append(("read", status, body))
                    return
                with lock:
                    totals["reads"] += 1
                if i % args.write_every == 0:
                    event = writes[(i // args.write_every) % len(writes)]
                    status, body = _request(
                        conn, "POST", "/v1/ingest", event
                    )
                    if status >= 500:
                        with lock:
                            fatal.append(("write", status, body))
                        return
                    with lock:
                        if status == 200:
                            totals["writes"] += 1
                            totals["last_seq"] = max(
                                totals["last_seq"], body["last_seq"]
                            )
                        elif status in NONFATAL_STATUSES:
                            totals["shed"] += 1
                        else:
                            fatal.append(("write", status, body))
                            return
                i += 1
        except OSError as exc:
            # A dropped connection under load is a 5xx in disguise.
            with lock:
                fatal.append(("connection", worker_id, repr(exc)))
        finally:
            conn.close()

    threads = [
        threading.Thread(target=worker, args=(w,), daemon=True)
        for w in range(args.connections)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=args.duration + 120.0)

    print(
        f"soak done: {totals['reads']} reads, {totals['writes']} writes "
        f"({totals['shed']} shed) over {args.connections} connections, "
        f"last acked seq {totals['last_seq']}"
    )
    if fatal:
        print(f"FATAL errors during the soak: {fatal[:5]}")
        return 1

    # Post-soak settle: every acked event applied.
    probe = http.client.HTTPConnection(host, port, timeout=30)
    settle_deadline = time.monotonic() + args.settle_timeout
    metrics: dict = {}
    try:
        while time.monotonic() < settle_deadline:
            _, metrics = _request(probe, "GET", "/v1/metrics")
            updater = metrics.get("updater") or {}
            if updater.get("applied_seq", 0) >= totals["last_seq"]:
                break
            time.sleep(1.0)
    finally:
        probe.close()

    updater = metrics.get("updater") or {}
    edge = metrics.get("edge") or {}
    print(
        f"updater: applied_seq={updater.get('applied_seq')} "
        f"generations={updater.get('generations')} "
        f"swap_failures={updater.get('swap_failures')}; "
        f"edge: kind={edge.get('kind')} "
        f"connections={edge.get('connections')} "
        f"deadline_expired={edge.get('deadline_expired')}"
    )

    failures = []
    if totals["writes"] == 0:
        failures.append("no write was ever admitted")
    if updater.get("applied_seq", 0) < totals["last_seq"]:
        failures.append(
            f"lost events: applied_seq {updater.get('applied_seq')} < "
            f"last acked seq {totals['last_seq']}"
        )
    if edge.get("kind") != "async":
        failures.append(f"not the async edge: {edge.get('kind')!r}")
    failures.extend(check_observability(args.url, who="async edge"))

    if failures:
        for f in failures:
            print(f"GATE FAILED: {f}")
        return 1
    print("async edge soak gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
