#!/usr/bin/env python
"""Bench-regression gate for CI.

Times the pipeline stages and the serving-engine hot paths on a small
synthetic marketplace, compares each against the committed
``BENCH_BASELINE.json``, and exits non-zero if any stage regressed more
than ``--tolerance`` (default 2x).

Raw wall-clock differs across machines, so the baseline also records a
*calibration* time (a fixed CPU-bound numpy workload). At check time
the current machine's calibration rescales the allowance: a runner 1.7x
slower than the baseline machine gets a 1.7x larger budget. Machines
*faster* than baseline keep the absolute budget (scale is clamped at
1.0 from below) so a fast runner never produces false regressions.
Stages quicker than ``--min-seconds`` are compared against that floor —
ratio gates on sub-millisecond timings are pure noise.

Usage::

    python benchmarks/check_regressions.py            # gate against baseline
    python benchmarks/check_regressions.py --update   # re-record baseline

Exit status: 0 within budget, 1 a stage regressed, 2 not comparable (no
baseline, another profile, or a baseline stage this run did not
measure — a stage that silently left the gate).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import ServiceBackend  # noqa: E402
from repro.core.config import ShoalConfig  # noqa: E402
from repro.core.pipeline import ShoalPipeline  # noqa: E402
from repro.data.marketplace import PROFILES, generate_marketplace  # noqa: E402

DEFAULT_BASELINE = Path(__file__).resolve().parent / "BENCH_BASELINE.json"


def calibrate() -> float:
    """Seconds for a fixed CPU-bound workload; the machine-speed yardstick."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((220, 220))
    t0 = time.perf_counter()
    for _ in range(300):
        a = np.tanh(a @ a.T / 220.0)
    return time.perf_counter() - t0


#: Serving stages are timed as aggregates over fixed op counts so every
#: recorded number sits well above timer noise and the --min-seconds
#: floor; per-op latency = aggregate / ops.
SEARCH_COLD_ROUNDS = 5
RELATED_COLD_OPS = 500
BATCH_ROUNDS = 5


def _median_of(fn: Callable[[], float], repeats: int) -> float:
    return statistics.median(fn() for _ in range(repeats))


def measure(profile: str, repeats: int) -> Dict[str, float]:
    """Median stage timings (seconds) over ``repeats`` runs."""
    market = generate_marketplace(PROFILES[profile])
    queries = [q.text for q in market.query_log.queries[:64]]
    categories = {
        e.entity_id: e.category_id for e in market.catalog.entities
    }

    pipeline_runs = []
    models = []
    for _ in range(repeats):
        model = ShoalPipeline(ShoalConfig()).fit(market)
        pipeline_runs.append(model.stage_seconds)
        models.append(model)
    stages: Dict[str, float] = {
        stage: statistics.median(run[stage] for run in pipeline_runs)
        for stage in pipeline_runs[0]
    }
    model = models[-1]

    def build_index() -> float:
        t0 = time.perf_counter()
        ServiceBackend.from_model(model, entity_categories=categories)
        return time.perf_counter() - t0

    stages["serving_index_build"] = _median_of(build_index, repeats)

    # These stages gate the raw engine's hot paths, so they time the
    # engine behind the adapter (gateway dispatch overhead has its own
    # 1.3x gate in benchmarks/test_bench_api.py). The engine holds no
    # result cache, so every call computes ("cold").
    engine = ServiceBackend.from_model(
        model, entity_categories=categories
    ).service
    root = engine.taxonomy.root_topics()[0]

    def time_queries() -> float:
        t0 = time.perf_counter()
        for _ in range(SEARCH_COLD_ROUNDS):
            for q in queries:
                engine.search_topics(q, k=5)
        return time.perf_counter() - t0

    def time_batch() -> float:
        t0 = time.perf_counter()
        for _ in range(BATCH_ROUNDS):
            engine.search_topics_batch(queries, k=5)
        return time.perf_counter() - t0

    def time_related() -> float:
        t0 = time.perf_counter()
        for _ in range(RELATED_COLD_OPS):
            engine.related_topics(root.topic_id, k=6)
        return time.perf_counter() - t0

    stages["serving_search_cold"] = _median_of(time_queries, repeats)
    stages["serving_search_batch"] = _median_of(time_batch, repeats)
    stages["serving_related_cold"] = _median_of(time_related, repeats)
    return stages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="small",
        help="marketplace size to bench (default: small)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--tolerance", type=float, default=2.0,
        help="fail when a stage exceeds baseline x tolerance (default 2.0)",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=0.005,
        help="floor applied to baselines before the ratio check",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="re-record the baseline instead of gating against it",
    )
    args = parser.parse_args(argv)

    cal = calibrate()
    stages = measure(args.profile, args.repeats)

    if args.update:
        payload = {
            "profile": args.profile,
            "repeats": args.repeats,
            "calibration_seconds": round(cal, 6),
            "stages": {k: round(v, 6) for k, v in sorted(stages.items())},
        }
        args.baseline.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline written to {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; run with --update first")
        return 2
    baseline = json.loads(args.baseline.read_text())
    if baseline.get("profile") != args.profile:
        print(
            f"baseline recorded on profile {baseline.get('profile')!r}, "
            f"current run is {args.profile!r}; not comparable"
        )
        return 2
    stale = sorted(set(baseline["stages"]) - set(stages))
    if stale:
        print(
            f"not comparable: baseline lists unmeasured stage "
            f"{', '.join(stale)}; re-record with --update"
        )
        return 2

    scale = max(cal / baseline["calibration_seconds"], 1.0)
    print(
        f"calibration {cal:.3f}s vs baseline "
        f"{baseline['calibration_seconds']:.3f}s -> allowance scale "
        f"{scale:.2f}, tolerance {args.tolerance}x"
    )
    failures = []
    header = f"{'stage':<24}{'baseline':>12}{'current':>12}{'ratio':>8}  verdict"
    print(header)
    print("-" * len(header))
    for stage, current in sorted(stages.items()):
        base = baseline["stages"].get(stage)
        if base is None:
            print(f"{stage:<24}{'(new)':>12}{current:>12.4f}{'':>8}  recorded"
                  " in next --update")
            continue
        floor = max(base, args.min_seconds)
        allowed = floor * args.tolerance * scale
        ratio = current / floor
        ok = current <= allowed
        print(
            f"{stage:<24}{base:>12.4f}{current:>12.4f}{ratio:>8.2f}  "
            f"{'ok' if ok else 'REGRESSED'}"
        )
        if not ok:
            failures.append(stage)
    if failures:
        print(f"\nFAIL: {len(failures)} stage(s) regressed >"
              f"{args.tolerance}x: {', '.join(failures)}")
        return 1
    print("\nall stages within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
