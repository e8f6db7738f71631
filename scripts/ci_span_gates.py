#!/usr/bin/env python
"""CI gate for the tracer's span histograms and the rendered trace.

Run after traffic has reached a ``serve-http`` gateway with tracing on
(the default). It fails unless

* ``GET /v1/metrics?format=prom`` passes the strict OpenMetrics parser
  and ``shoal_span_self_ms_count`` is at least ``--min-count`` for each
  of ``edge.request``, ``gateway`` and ``mw.cache`` — every request
  opens those spans, kept or dropped, so each count covers the replay;
* ``python -m repro.cli trace --url URL`` renders the latest sampled
  trace as a tree whose root line is ``edge.request``.

Usage::

    python scripts/ci_span_gates.py --url http://127.0.0.1:8471 \
        --min-count 200
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import urllib.request

from _soak import REPO_ROOT

from repro.obs import OpenMetricsError, parse_openmetrics

#: Spans every read opens, hit or miss.
EVERY_READ = ("edge.request", "gateway", "mw.cache")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", required=True)
    parser.add_argument("--min-count", type=int, default=200)
    args = parser.parse_args(argv)
    failures = []

    url = args.url.rstrip("/")
    with urllib.request.urlopen(f"{url}/v1/metrics?format=prom") as resp:
        text = resp.read().decode("utf-8")
    try:
        doc = parse_openmetrics(text)
    except OpenMetricsError as exc:
        failures.append(f"prom exposition rejected by the strict parser: {exc}")
    else:
        for name in EVERY_READ:
            try:
                count = doc.value("shoal_span_self_ms_count", span=name)
            except KeyError:
                failures.append(f"no shoal_span_self_ms series for {name!r}")
                continue
            print(f"shoal_span_self_ms_count{{span={name!r}}} = {count:g}")
            if count < args.min_count:
                failures.append(
                    f"span {name!r} counted {count:g} self times "
                    f"(need >= {args.min_count})"
                )

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    rendered = subprocess.run(
        [sys.executable, "-m", "repro.cli", "trace", "--url", url],
        capture_output=True, text=True, env=env,
    )
    print(rendered.stdout, end="")
    lines = rendered.stdout.splitlines()
    if rendered.returncode != 0 or len(lines) < 2:
        failures.append(
            f"cli trace exited {rendered.returncode}: {rendered.stderr[-400:]}"
        )
    elif not lines[0].startswith("trace ") or lines[1].split()[0] != (
        "edge.request"
    ):
        failures.append(
            f"cli trace did not render a tree rooted at edge.request: "
            f"{lines[:2]}"
        )

    for failure in failures:
        print(f"GATE FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
