#!/usr/bin/env python3
"""Compare two ledger documents: ``compare.py BASE.json NEW.json``.

One row per workload and end-to-end metric (on the workloads the
catalogue lists the metric for): both values, the ratio NEW / BASE with
its base, and a verdict:

* ``ok`` — NEW is not worse than BASE by more than the metric's bound;
* ``regressed`` — it is;
* ``unresolved`` — it is, but the spread inside either run (between the
  windows or repeats its value is the median of) is wider than the
  bound, so the difference cannot be told from noise;
* ``missing`` — BASE has the row and NEW does not.

Exits 1 on any ``regressed`` or ``missing`` row, or when NEW failed a
larger share of its operations than BASE; exits 2, before any row, when
the two documents were not sent the same inputs for the same time (seed,
``--seconds`` and ``inputs_sha256`` of every run they share must agree).
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any, Dict, Iterator, List, Tuple

from catalogue import END_TO_END


def mismatches(base: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """Why the two ledgers cannot be compared; empty when they can."""
    out = []
    if base.get("seed") != new.get("seed"):
        out.append(f"seed: {base.get('seed')} vs {new.get('seed')}")
    for workload, b_entry in base["workloads"].items():
        b_run = b_entry.get("e2e")
        n_run = new["workloads"].get(workload, {}).get("e2e")
        if not b_run or not n_run:
            continue  # reported as missing rows
        for key in ("seconds", "inputs_sha256"):
            if b_run.get(key) != n_run.get(key):
                out.append(f"{workload} {key}: {b_run.get(key)} vs {n_run.get(key)}")
    return out


def worse_by(b: float, n: float, better: str, kind: str) -> float:
    """How much worse NEW is than BASE, in the terms of the bound: a
    difference for an absolute bound, else a share of BASE."""
    diff = n - b if better == "lower" else b - n
    if kind == "absolute" or diff == 0:
        return diff
    return diff / abs(b) if b else math.copysign(math.inf, diff)


def rows(base: Dict[str, Any], new: Dict[str, Any]) -> Iterator[Tuple]:
    for workload, b_entry in base["workloads"].items():
        if "e2e" not in b_entry:
            continue
        b_run = b_entry["e2e"]
        n_run = new["workloads"].get(workload, {}).get("e2e", {})
        b_values = {k: v["value"] for k, v in b_run["metrics"].items()}
        n_values = {k: v["value"] for k, v in n_run.get("metrics", {}).items()}
        b_values.update(b_run.get("write_side", {}))
        n_values.update(n_run.get("write_side", {}))
        for m in END_TO_END:
            if m.name not in b_values or (m.workloads and workload not in m.workloads):
                continue
            b = b_values[m.name]
            if m.name not in n_values:
                yield workload, m.name, b, math.nan, math.nan, m.bound, m.kind, 0.0, "missing"
                continue
            n = n_values[m.name]
            # The within-run spread is a share of the value, so it can
            # only excuse a relative bound.
            spread = max(
                b_run.get("spread", {}).get(m.name, 0.0),
                n_run.get("spread", {}).get(m.name, 0.0),
            )
            if worse_by(b, n, m.better, m.kind) <= m.bound:
                verdict = "ok"
            elif m.kind == "relative" and spread > m.bound:
                verdict = "unresolved"
            else:
                verdict = "regressed"
            ratio = n / b if b else math.nan
            yield workload, m.name, b, n, ratio, m.bound, m.kind, spread, verdict


def failed_share(doc: Dict[str, Any]) -> float:
    runs = [w["e2e"] for w in doc["workloads"].values() if "e2e" in w]
    attempted = sum(r["ops_attempted"] for r in runs)
    return sum(r["ops_failed"] for r in runs) / attempted if attempted else 0.0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        base = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        new = json.load(fh)
    different = mismatches(base, new)
    if different:
        print("not comparable, the runs differ in " + "; ".join(different), file=sys.stderr)
        return 2
    print(f"{'workload':16s} {'metric':22s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'bound':>10s} {'spread':>7s} verdict")
    verdicts = []
    for workload, metric, b, n, ratio, bound, kind, spread, verdict in rows(base, new):
        verdicts.append(verdict)
        print(f"{workload:16s} {metric:22s} {b:12.5g} {n:12.5g} {ratio:8.3f}x "
              f"{bound:6.3f} {kind[:3]} {spread:7.3f} {verdict}")
    more_failures = failed_share(new) > failed_share(base)
    if more_failures:
        print(f"ops_failed share rose from {failed_share(base):.5f} "
              f"to {failed_share(new):.5f}")
    bad = more_failures or "regressed" in verdicts or "missing" in verdicts
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
