#!/usr/bin/env python
"""One line per (profile, seed): the fit's ``snapshot_fingerprint`` and
its ``fit_digest``.

A fit is a pure function of (profile, seed), and a rewrite of a fit
stage claims the same bytes out. This prints what that claim is checked
against, so "identical at N profile/seed pairs" is two runs of one
command and a ``diff``, between commits or between ``PYTHONHASHSEED``
values::

    python scripts/fit_fingerprints.py --profiles tiny small --seeds 7 11

Each line is ``profile seed fingerprint digest stage_seconds``. The
fingerprint covers the saved snapshot; the digest covers every stage's
in-memory output, including the click graph and scored descriptions no
snapshot keeps. ``stage_seconds`` is compact JSON, for reading; only
the first four columns are stable.
"""

from __future__ import annotations

import argparse
import json
import tempfile

from repro.core.config import ShoalConfig
from repro.core.pipeline import ShoalPipeline, fit_digest
from repro.data.marketplace import PROFILES, generate_marketplace
from repro.store.persistence import snapshot_fingerprint


def fingerprint_line(profile: str, seed: int) -> str:
    market = generate_marketplace(PROFILES[profile].with_seed(seed))
    model = ShoalPipeline(ShoalConfig()).fit(market)
    categories = {e.entity_id: e.category_id for e in market.catalog.entities}
    with tempfile.TemporaryDirectory(prefix="shoal-fingerprint-") as tmp:
        fingerprint = snapshot_fingerprint(
            model.save(tmp, entity_categories=categories)
        )
    stages = {k: round(v, 3) for k, v in model.stage_seconds.items()}
    return (
        f"{profile} {seed} {fingerprint} {fit_digest(model)} "
        f"{json.dumps(stages, separators=(',', ':'))}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profiles", nargs="+", choices=sorted(PROFILES), default=["tiny", "small"]
    )
    parser.add_argument("--seeds", nargs="+", type=int, default=[7])
    args = parser.parse_args(argv)
    for profile in args.profiles:
        for seed in args.seeds:
            print(fingerprint_line(profile, seed), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
