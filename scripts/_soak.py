"""What the CI gate scripts share: import path, health wait, the common
arguments, the seeded traffic, and the mixed read+write step.

Each ``ci_*`` script keeps its own gates and exit codes; this module is
only the harness around them. Importing it puts ``src/`` and the
benchmark ledger on the path, so scripts import it before anything from
:mod:`repro`. The traffic comes from the ledger's generators
(``benchmarks/ledger/workloads.py``), read-only: one definition of the
load that tests the service.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "ledger"))

from repro.api import ApiError, SearchRequest, ShoalClient  # noqa: E402
from repro.data.marketplace import PROFILES, generate_marketplace  # noqa: E402
from workloads import event_payloads, hot_strings, zipf_draws  # noqa: E402

FATAL_READ_CODES = {"backend_error", "unavailable", "deadline_exceeded"}
FATAL_WRITE_CODES = {"backend_error", "unavailable", "ingest_unavailable"}


def wait_healthy(
    client: ShoalClient, who: str = "gateway", timeout_s: float = 60.0
) -> None:
    """Poll ``GET /v1/health`` until it answers ok, or exit."""
    deadline = time.monotonic() + timeout_s
    last: Exception = RuntimeError("never polled")
    while time.monotonic() < deadline:
        try:
            health = client.health()
            if health.get("status") == "ok":
                return
            last = RuntimeError(f"unhealthy: {health}")
        except ApiError as exc:
            last = exc
        time.sleep(0.25)
    raise SystemExit(f"{who} never became healthy: {last}")


def gate_parser(doc: str) -> argparse.ArgumentParser:
    """``--url --profile --seed``: what every gate script takes."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--url", required=True)
    parser.add_argument("--profile", default="small")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def soak_parser(
    doc: str, *, settle_what: str, settle_timeout: float = 120.0
) -> argparse.ArgumentParser:
    """:func:`gate_parser` plus ``--duration --write-every
    --settle-timeout``: what every timed soak takes."""
    parser = gate_parser(doc)
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument(
        "--write-every", type=int, default=4,
        help="one write per this many reads (per connection)",
    )
    parser.add_argument(
        "--settle-timeout", type=float, default=settle_timeout,
        help=f"how long to wait post-soak for {settle_what}",
    )
    return parser


def hot_reads(market, rng: np.random.Generator, n: int) -> list:
    """``n`` query strings in the ledger's hot shape: Zipf draws over
    four spellings of every logged query, rank order shuffled by ``rng``."""
    strings = hot_strings([q.text for q in market.query_log.queries])
    order = rng.permutation(len(strings))
    return [strings[order[i]] for i in zipf_draws(rng, len(strings), n)]


def build_traffic(args):
    """(market, read queries, write events) seeded from the arguments:
    20k hot reads over the profile's log and 5k writes dated the day
    after its last."""
    market = generate_marketplace(
        PROFILES[args.profile].with_seed(args.seed)
    )
    rng = np.random.default_rng(args.seed)
    reads = hot_reads(market, rng, 20_000)
    writes = event_payloads(market, rng, 5_000)
    return market, reads, writes


class Tally:
    """Counters of one soak's mixed traffic through :class:`ShoalClient`.

    A step returns False once it has recorded a fatal (5xx-class)
    error, which ends the soak; load-shed 429s are counted, not fatal.
    """

    def __init__(self) -> None:
        self.reads = self.writes = self.shed = self.last_acked_seq = 0
        self.fatal: list = []

    def read(self, client: ShoalClient, query: str, who: str = "read") -> bool:
        try:
            client.search(SearchRequest(query=query, k=5))
            self.reads += 1
        except ApiError as exc:
            if exc.code in FATAL_READ_CODES:
                self.fatal.append((who, exc.code, str(exc)))
                return False
        return True

    def write(self, client: ShoalClient, event, who: str = "write") -> bool:
        try:
            ack = client.ingest(event)
            self.last_acked_seq = max(self.last_acked_seq, ack["last_seq"])
            self.writes += 1
        except ApiError as exc:
            if exc.code in FATAL_WRITE_CODES:
                self.fatal.append((who, exc.code, str(exc)))
                return False
            self.shed += 1
        return True
