#!/usr/bin/env python
"""CI soak gate for the replication subsystem.

Drives mixed traffic against a ``serve-http --ship-feed`` primary and a
fleet of ``serve-follower`` replicas for a fixed duration and fails if

* any read against the primary OR any follower dies with a 5xx-class
  :class:`ApiError` — followers hot-swap on epoch broadcasts throughout
  the soak, so this is the distributed zero-failed-reads gate;
* any admitted write is lost on the primary (``applied_seq`` must reach
  the last acked sequence number);
* the fleet fails to converge: every follower must end the soak serving
  the primary's latest generation with zero replication lag, healthy,
  non-divergent, with at least ``--min-epochs`` coordinated swaps and
  zero swap failures;
* any follower's answers diverge from the primary's: ``--sample``
  distinct queries are replayed against every process post-settle and
  each search/recommend response must be **byte-identical** to the
  primary's;
* any process's observability surface regressed: the primary AND
  every follower must serve ``GET /v1/metrics?format=prom`` past the
  strict OpenMetrics parser, have sampled at least one trace, and
  resolve a coherent span tree end-to-end via ``GET /v1/trace``
  (see :mod:`obs_gates`).

Usage::

    python scripts/ci_replication_soak.py --url http://127.0.0.1:8475 \
        --followers http://127.0.0.1:8476,http://127.0.0.1:8477 \
        --profile small --seed 0 --duration 60 --write-every 4
"""

from __future__ import annotations

import json
import time

from _soak import Tally, build_traffic, soak_parser, wait_healthy

from obs_gates import check_observability
from repro.api import RecommendRequest, SearchRequest, ShoalClient


def main(argv=None) -> int:
    parser = soak_parser(
        __doc__, settle_what="the fleet to converge", settle_timeout=180.0
    )
    parser.add_argument(
        "--followers", required=True,
        help="comma-separated follower gateway URLs",
    )
    parser.add_argument("--min-epochs", type=int, default=1)
    parser.add_argument(
        "--sample", type=int, default=50,
        help="distinct queries for the byte-identity check",
    )
    args = parser.parse_args(argv)

    market, reads, writes = build_traffic(args)
    primary = ShoalClient(args.url, timeout=30.0)
    followers = [
        (url, ShoalClient(url, timeout=30.0))
        for url in args.followers.split(",")
        if url
    ]
    if not followers:
        raise SystemExit("--followers named no follower URLs")
    wait_healthy(primary, "primary")
    for url, client in followers:
        wait_healthy(client, f"follower {url}", timeout_s=120.0)

    # -- mixed traffic, round-robin across the whole fleet ---------------
    fleet = [("primary", primary)] + [
        (f"follower {url}", c) for url, c in followers
    ]
    deadline = time.monotonic() + args.duration
    tally = Tally()
    i = 0
    while time.monotonic() < deadline:
        who, client = fleet[i % len(fleet)]
        if not tally.read(client, reads[i % len(reads)], who):
            break
        if i % args.write_every == 0:
            event = writes[(i // args.write_every) % len(writes)]
            if not tally.write(primary, event, "primary write"):
                break
        i += 1

    print(
        f"soak done: {tally.reads} reads across {len(fleet)} processes, "
        f"{tally.writes} writes ({tally.shed} shed), last acked seq "
        f"{tally.last_acked_seq}"
    )
    if tally.fatal:
        print(f"FATAL errors during the soak: {tally.fatal[:5]}")
        return 1

    # -- settle: primary drains, followers converge ----------------------
    settle_deadline = time.monotonic() + args.settle_timeout
    updater: dict = {}
    follower_repl: dict = {url: {} for url, _ in followers}
    while time.monotonic() < settle_deadline:
        metrics = primary.metrics()
        updater = metrics.updater or {}
        target_generation = updater.get("generations", 0)
        for url, client in followers:
            follower_repl[url] = (client.metrics().replication) or {}
        if (
            updater.get("applied_seq", 0) >= tally.last_acked_seq
            and target_generation >= 1
            and all(
                r.get("serving_generation") == target_generation
                and r.get("seqs_behind") == 0
                for r in follower_repl.values()
            )
        ):
            break
        time.sleep(1.0)

    target_generation = updater.get("generations", 0)
    print(
        f"primary: applied_seq={updater.get('applied_seq')} "
        f"generations={target_generation}"
    )
    for url, repl in follower_repl.items():
        print(
            f"follower {url}: epoch={repl.get('epoch')} "
            f"serving={repl.get('serving_generation')} "
            f"seqs_behind={repl.get('seqs_behind')} "
            f"epoch_swaps={repl.get('epoch_swaps')} "
            f"swap_failures={repl.get('swap_failures')} "
            f"healthy={repl.get('healthy')} "
            f"divergent={repl.get('divergent')}"
        )

    failures = []
    if updater.get("applied_seq", 0) < tally.last_acked_seq:
        failures.append(
            f"lost events: applied_seq {updater.get('applied_seq')} < "
            f"last acked seq {tally.last_acked_seq}"
        )
    if target_generation < 1:
        failures.append("primary never produced a generation")
    for url, repl in follower_repl.items():
        if repl.get("serving_generation") != target_generation:
            failures.append(
                f"{url} serves generation {repl.get('serving_generation')}"
                f", primary is at {target_generation} (never converged)"
            )
        if repl.get("seqs_behind") != 0:
            failures.append(
                f"{url} still {repl.get('seqs_behind')} seqs behind"
            )
        if repl.get("epoch_swaps", 0) < args.min_epochs:
            failures.append(
                f"{url} completed {repl.get('epoch_swaps', 0)} epoch "
                f"swap(s) (need >= {args.min_epochs})"
            )
        if repl.get("swap_failures", 0) > 0:
            failures.append(
                f"{url} failed {repl.get('swap_failures')} swap(s)"
            )
        if not repl.get("healthy") or repl.get("divergent"):
            failures.append(
                f"{url} ended unhealthy/divergent: "
                f"{repl.get('last_error', 'no error recorded')}"
            )
    if tally.writes == 0:
        failures.append("no write was ever admitted")
    failures.extend(check_observability(args.url, who="primary"))
    for url, _client in followers:
        failures.extend(
            check_observability(url, who=f"follower {url}")
        )
    if failures:
        for f in failures:
            print(f"GATE FAILED: {f}")
        return 1

    # -- byte-identity: every follower answers exactly like the primary --
    sample = sorted({q.text for q in market.query_log.queries})[: args.sample]
    mismatches = 0
    for query in sample:
        want_search = json.dumps(
            primary.search(SearchRequest(query=query, k=10)).to_dict(),
            sort_keys=True,
        )
        want_recommend = json.dumps(
            primary.recommend(RecommendRequest(query=query, k=10)).to_dict(),
            sort_keys=True,
        )
        for url, client in followers:
            got_search = json.dumps(
                client.search(SearchRequest(query=query, k=10)).to_dict(),
                sort_keys=True,
            )
            got_recommend = json.dumps(
                client.recommend(
                    RecommendRequest(query=query, k=10)
                ).to_dict(),
                sort_keys=True,
            )
            if got_search != want_search or got_recommend != want_recommend:
                mismatches += 1
                print(
                    f"GATE FAILED: {url} diverged on {query!r}: "
                    f"search {got_search[:120]} != {want_search[:120]}"
                )
    print(
        f"byte-identity: {len(sample)} queries x {len(followers)} "
        f"followers, {mismatches} mismatches"
    )
    if mismatches:
        return 1
    print("replication soak gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
