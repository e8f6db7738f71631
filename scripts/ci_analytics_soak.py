#!/usr/bin/env python
"""CI soak gate for the HTAP analytics tier.

Replays mixed read+write+analytics traffic against a running
``serve-http --ingest-wal --analytics-db`` gateway for a fixed duration
and fails if

* any read, write, or analytics query dies with a 5xx-class
  :class:`ApiError` (``backend_error`` / ``unavailable`` /
  ``ingest_unavailable`` / ``analytics_unavailable`` /
  ``analytics_timeout``) — load-shed 429s are expected and tracked;
* the tailer loses or doubles an event: after the soak settles, the
  analytics section of ``GET /v1/metrics`` must show
  ``applied_seq == events == last acked seq`` (WAL seqs are dense, so
  any gap or double breaks the equality), and a live
  ``SELECT COUNT(*)`` through ``/v1/analytics`` must agree with the
  scrape;
* the tailer cannot keep up: post-settle ``lag`` must be zero.

Usage::

    python scripts/ci_analytics_soak.py --url http://127.0.0.1:8473 \
        --profile small --seed 0 --duration 60 --write-every 4 \
        --analytics-every 25
"""

from __future__ import annotations

import time

from _soak import Tally, build_traffic, soak_parser, wait_healthy

from repro.api import AnalyticsRequest, ApiError, ShoalClient

FATAL_ANALYTICS_CODES = {
    "backend_error",
    "unavailable",
    "analytics_unavailable",
    "analytics_timeout",
    "analytics_bad_sql",  # the soak only sends valid statements
}

ANALYTICS_MIX = [
    AnalyticsRequest(report="daily"),
    AnalyticsRequest(report="trending", limit=20),
    AnalyticsRequest(report="topics", limit=20),
    AnalyticsRequest(report="shed", limit=20),
    AnalyticsRequest(
        sql="SELECT day, COUNT(*) AS n FROM events GROUP BY day"
    ),
    AnalyticsRequest(sql="SELECT COUNT(*) AS n FROM events", sample=True),
]


def main(argv=None) -> int:
    parser = soak_parser(__doc__, settle_what="the tailer to drain")
    parser.add_argument(
        "--analytics-every", type=int, default=25,
        help="one analytics query per this many reads",
    )
    args = parser.parse_args(argv)

    _, reads, writes = build_traffic(args)
    client = ShoalClient(args.url, timeout=30.0)
    wait_healthy(client)

    deadline = time.monotonic() + args.duration
    tally = Tally()
    n_analytics = 0
    i = 0
    while time.monotonic() < deadline:
        if not tally.read(client, reads[i % len(reads)]):
            break
        if i % args.write_every == 0:
            event = writes[(i // args.write_every) % len(writes)]
            if not tally.write(client, event):
                break
        if i % args.analytics_every == 0:
            request = ANALYTICS_MIX[
                (i // args.analytics_every) % len(ANALYTICS_MIX)
            ]
            try:
                client.analytics(request)
                n_analytics += 1
            except ApiError as exc:
                if exc.code in FATAL_ANALYTICS_CODES:
                    tally.fatal.append(("analytics", exc.code, str(exc)))
                    break
        i += 1

    print(
        f"soak done: {tally.reads} reads, {tally.writes} writes ({tally.shed} shed), "
        f"{n_analytics} analytics queries, last acked seq {tally.last_acked_seq}"
    )
    if tally.fatal:
        print(f"FATAL errors during the soak: {tally.fatal[:5]}")
        return 1

    # Post-soak settle: the tailer must fold every acked event.
    settle_deadline = time.monotonic() + args.settle_timeout
    analytics: dict = {}
    while time.monotonic() < settle_deadline:
        analytics = client.metrics().analytics or {}
        if (
            analytics.get("applied_seq", 0) >= tally.last_acked_seq
            and analytics.get("lag", 1) == 0
        ):
            break
        time.sleep(1.0)

    print(
        f"analytics: applied_seq={analytics.get('applied_seq')} "
        f"events={analytics.get('events')} lag={analytics.get('lag')} "
        f"segments={analytics.get('segments_tailed')} "
        f"served={analytics.get('queries_served')} "
        f"failed={analytics.get('queries_failed')}"
    )

    failures = []
    if analytics.get("applied_seq", 0) < tally.last_acked_seq:
        failures.append(
            f"lost events: applied_seq {analytics.get('applied_seq')} < "
            f"last acked seq {tally.last_acked_seq}"
        )
    # WAL seqs are dense (sheds never get one), so exactly-once means
    # the store holds exactly applied_seq events — a loss breaks the
    # first gate above, a double-apply breaks this equality.
    if analytics.get("events") != analytics.get("applied_seq"):
        failures.append(
            f"event count {analytics.get('events')} != applied_seq "
            f"{analytics.get('applied_seq')} (doubled or dropped rows)"
        )
    if analytics.get("lag", 1) != 0:
        failures.append(
            f"tailer never drained: lag={analytics.get('lag')}"
        )
    if analytics.get("queries_failed", 0) > 0:
        failures.append(
            f"{analytics.get('queries_failed')} analytics queries failed "
            "server-side"
        )
    try:
        live = client.analytics(
            AnalyticsRequest(sql="SELECT COUNT(*) AS n FROM events")
        )
        live_count = live.rows[0][0]
        if live_count != analytics.get("events"):
            failures.append(
                f"live COUNT(*) {live_count} disagrees with the metrics "
                f"scrape {analytics.get('events')}"
            )
    except ApiError as exc:
        failures.append(f"post-soak analytics query failed: {exc}")
    if tally.writes == 0:
        failures.append("no write was ever admitted")
    if n_analytics == 0:
        failures.append("no analytics query was ever served")

    if failures:
        for f in failures:
            print(f"GATE FAILED: {f}")
        return 1
    print("analytics soak gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
