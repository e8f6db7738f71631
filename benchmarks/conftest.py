"""Shared bench fixtures.

Benches run on the "default" profile (600 entities) unless the
experiment needs a size sweep. Fitted models are session-scoped: they
are pure functions of configs, so sharing is sound and keeps the whole
bench suite in the minutes range.

The benches draw their traffic from the perf ledger's generators
(``ledger/workloads.py``, read-only): this file puts ``ledger/`` on
``sys.path``, so a bench imports them as ``from workloads import …``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ShoalConfig
from repro.core.pipeline import ShoalModel, ShoalPipeline
from repro.data.marketplace import PROFILES, Marketplace, generate_marketplace

sys.path.insert(0, str(Path(__file__).resolve().parent / "ledger"))
from workloads import hot_strings, zipf_draws  # noqa: E402


@pytest.fixture(scope="session")
def bench_marketplace() -> Marketplace:
    """The main bench corpus (default profile)."""
    return generate_marketplace(PROFILES["default"])


@pytest.fixture(scope="session")
def bench_model(bench_marketplace) -> ShoalModel:
    """SHOAL fitted on the main bench corpus with paper defaults."""
    return ShoalPipeline(ShoalConfig()).fit(bench_marketplace)


@pytest.fixture(scope="session")
def bench_truth(bench_marketplace):
    """Ground-truth entity → leaf-scenario labels."""
    return {
        e.entity_id: e.scenario_id for e in bench_marketplace.catalog.entities
    }


@pytest.fixture(scope="session")
def hot_reads(bench_marketplace):
    """``draw(n, seed)``: ``n`` query strings in the perf ledger's hot
    shape — Zipf draws over four spellings of every logged query, which
    tokenize alike — with the rank order shuffled by the seed."""
    strings = hot_strings([q.text for q in bench_marketplace.query_log.queries])

    def draw(n: int, seed: int):
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(strings))
        return [strings[order[i]] for i in zipf_draws(rng, len(strings), n)]

    return draw
