#!/usr/bin/env python
"""CI soak gate for the streaming write path.

Replays mixed read+write traffic against a running
``serve-http --ingest-wal`` gateway for a fixed duration and fails if

* any read or write dies with a 5xx-class :class:`ApiError`
  (``backend_error`` / ``unavailable`` / ``ingest_unavailable``) —
  load-shed 429s (``ingest_overloaded`` / ``rate_limited``) are
  expected behaviour and tracked, not fatal;
* any admitted event is lost: the updater's ``applied_seq`` scraped
  from ``GET /v1/metrics`` must reach the last sequence number the
  client was acknowledged (zero lost events);
* fewer than ``--min-generations`` generation hot-swaps completed, or
  any swap failed its health check;
* with ``--kill-fold-after S``: the fold process (its pid is in
  ``GET /v1/metrics``) is SIGKILLed S seconds into the soak, and the
  gate also fails unless the server started another one. The script
  must run on the server's host.

Usage::

    python scripts/ci_streaming_soak.py --url http://127.0.0.1:8472 \
        --profile small --seed 0 --duration 60 --write-every 4 \
        --kill-fold-after 20
"""

from __future__ import annotations

import os
import signal
import time

from _soak import Tally, build_traffic, soak_parser, wait_healthy

from repro.api import ShoalClient


def main(argv=None) -> int:
    parser = soak_parser(__doc__, settle_what="the updater to drain")
    parser.add_argument("--min-generations", type=int, default=1)
    parser.add_argument(
        "--kill-fold-after", type=float, default=None, metavar="S",
        help="SIGKILL the server's fold process S seconds into the soak",
    )
    args = parser.parse_args(argv)

    _, reads, writes = build_traffic(args)
    client = ShoalClient(args.url, timeout=30.0)
    wait_healthy(client)

    started = time.monotonic()
    deadline = started + args.duration
    killed = None
    tally = Tally()
    i = 0
    while time.monotonic() < deadline:
        if (
            killed is None
            and args.kill_fold_after is not None
            and time.monotonic() - started >= args.kill_fold_after
        ):
            killed = client.metrics().updater["fold_process"]["pid"]
            os.kill(killed, signal.SIGKILL)
            print(f"killed the fold process {killed}")
        if not tally.read(client, reads[i % len(reads)]):
            break
        if i % args.write_every == 0:
            event = writes[(i // args.write_every) % len(writes)]
            if not tally.write(client, event):
                break
        i += 1

    print(
        f"soak done: {tally.reads} reads, {tally.writes} writes "
        f"({tally.shed} shed), last acked seq {tally.last_acked_seq}"
    )
    if tally.fatal:
        print(f"FATAL errors during the soak: {tally.fatal[:5]}")
        return 1

    # Post-soak settle: the updater must apply every acked event and
    # have completed at least the minimum number of generation swaps.
    settle_deadline = time.monotonic() + args.settle_timeout
    updater: dict = {}
    ingest: dict = {}
    while time.monotonic() < settle_deadline:
        metrics = client.metrics()
        updater = metrics.updater or {}
        ingest = metrics.ingest or {}
        if (
            updater.get("applied_seq", 0) >= tally.last_acked_seq
            and updater.get("generations", 0) >= args.min_generations
            and (killed is None or updater.get("running"))
        ):
            break
        time.sleep(1.0)
    fold = updater.get("fold_process") or {}

    print(
        f"updater: applied_seq={updater.get('applied_seq')} "
        f"generations={updater.get('generations')} "
        f"swap_failures={updater.get('swap_failures')} "
        f"duplicates={updater.get('events_duplicate')}; "
        f"ingest: accepted={ingest.get('accepted')} "
        f"shed={ingest.get('shed')}; fold process: pid={fold.get('pid')} "
        f"restarts={fold.get('restarts')} cpu_s={fold.get('cpu_s')}"
    )

    failures = []
    if updater.get("applied_seq", 0) < tally.last_acked_seq:
        failures.append(
            f"lost events: applied_seq {updater.get('applied_seq')} < "
            f"last acked seq {tally.last_acked_seq}"
        )
    if updater.get("events_duplicate", 0) > 0:
        failures.append(
            f"double-applied events: {updater.get('events_duplicate')}"
        )
    if updater.get("generations", 0) < args.min_generations:
        failures.append(
            f"only {updater.get('generations', 0)} generation swap(s) "
            f"completed (need >= {args.min_generations})"
        )
    if updater.get("swap_failures", 0) > 0:
        failures.append(
            f"{updater.get('swap_failures')} generation swap(s) failed "
            "health checks"
        )
    if tally.writes == 0:
        failures.append("no write was ever admitted")
    if killed is not None and (
        fold.get("restarts", 0) < 1
        or fold.get("pid") in (None, killed)
        or not updater.get("running")
    ):
        failures.append(
            f"no new fold process after killing {killed}: {fold}"
        )

    if failures:
        for f in failures:
            print(f"GATE FAILED: {f}")
        return 1
    print("streaming soak gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
