#!/usr/bin/env python3
"""The perf ledger: one re-runnable benchmark for fit, read path and write path.

One run (what ``BENCHMARK.json`` names as the command)::

    python3 benchmarks/ledger/run.py --workload read-hot --seed 7 --seconds 10 --trace 0

sets the workload up from source, drives the unmodified
``python -m repro.cli serve-http`` with seeded open-loop traffic, checks
the answers, prints every metric with its unit and ends with one JSON
line. ``--trace 0`` measures the end-to-end metrics with nothing
attached to the server; ``--trace 1`` runs the same workload against
``traced_server.py`` and reports the per-layer metrics.

The whole ledger (every workload, both passes, one JSON document)::

    python3 benchmarks/ledger/run.py --seed 7 --out BENCH.json

There the timed phase lasts 30 s (20 s traced) unless ``--seconds`` says
otherwise. See README.md beside this file for the metric catalogue.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from server import ROOT, SRC, Server, ServerError  # noqa: E402

if not (SRC / "repro" / "cli.py").is_file():
    # Outside a checkout of the repository there is no program to measure.
    sys.exit(f"ledger: {SRC}/repro is missing; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import catalogue  # noqa: E402
import spans as span_lib  # noqa: E402
from loadgen import Connection, run_open_loop  # noqa: E402
from metrics import (  # noqa: E402
    E2E_WINDOWS,
    CheckFailed,
    Phase,
    SetUp,
    end_to_end_metrics,
    layer_metrics,
    spreads,
    timed,
    write_side_metrics,
)
from workloads import (  # noqa: E402
    E2E_SECONDS,
    TRACED_SECONDS,
    WARMUP_SHARE,
    WORKLOADS,
    Inputs,
    WorkloadSpec,
    build_inputs,
    http_request,
)

TMP_ROOT = ROOT / ".ledger_tmp"
N_SHARDS = 4
ANSWER_SAMPLES = 200
#: A calibration this many times the first one means the box is too
#: busy to measure on; the ledger stops instead of averaging it in.
CALIBRATION_LIMIT = 1.5


@contextlib.contextmanager
def scratch_dir(name: str) -> Iterator[Path]:
    """A directory of this process under ``.ledger_tmp/``, removed on every
    exit path (and ``.ledger_tmp/`` with it, unless another run is using it)."""
    TMP_ROOT.mkdir(exist_ok=True)
    path = TMP_ROOT / f"{name}-{os.getpid()}"
    path.mkdir()
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass


# -- machine ------------------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed piece of interpreter and numpy work."""
    import numpy as np

    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        a = np.arange(500_000, dtype=np.float64)
        for _ in range(20):
            a = np.sqrt(a * 1.0001 + 1.0)
        best = min(best, time.perf_counter() - t0)
    return best


def machine_info() -> Dict[str, Any]:
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
    }


# -- set-up -------------------------------------------------------------------


def dir_bytes(path: Optional[Path]) -> int:
    if path is None or not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def set_up(spec: WorkloadSpec, seed: int, work: Path, traced: bool, extra_fits: int) -> SetUp:
    """Data generation, base fit, snapshot (and shard) save, server start
    until healthy — ``spec.setup_repeats`` times; the last one is kept.

    ``extra_fits`` more fits of the same data are timed after the first
    (the timed phase of ``fit-xlarge``); they are not part of the set-up."""
    from repro.core.config import ShoalConfig
    from repro.core.pipeline import ShoalPipeline
    from repro.data.marketplace import PROFILES, generate_marketplace
    from repro.serving import ShardPlanner

    setup_s: List[float] = []
    fit_s: List[float] = []
    result: Optional[SetUp] = None
    for repeat in range(spec.setup_repeats):
        last = repeat == spec.setup_repeats - 1
        run_dir = work / f"setup-{repeat}"
        run_dir.mkdir()
        t0 = time.perf_counter()
        market = generate_marketplace(PROFILES[spec.profile].with_seed(seed))
        t_fit = time.perf_counter()
        model = ShoalPipeline(ShoalConfig()).fit(market)
        fit_s.append(time.perf_counter() - t_fit)
        extra_s = 0.0
        for _ in range(extra_fits):
            t_fit = time.perf_counter()
            ShoalPipeline(ShoalConfig()).fit(market)
            fit_s.append(time.perf_counter() - t_fit)
            extra_s += fit_s[-1]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        categories = {e.entity_id: e.category_id for e in market.catalog.entities}
        world = {"profile": spec.profile, "seed": seed}
        snapshot = run_dir / "snapshot"
        model.save(snapshot, entity_categories=categories, metadata=world)
        wal_dir = generations_dir = None
        if spec.backend == "cluster":
            cluster = run_dir / "cluster"
            ShardPlanner.save_shard_set(
                ShardPlanner(N_SHARDS).partition(model, categories), cluster,
                metadata=world,
            )
            serve_args = ["--cluster-dir", str(cluster)]
            reference_uri = f"cluster:{cluster}"
            artifact = cluster
        else:
            serve_args = ["--load", str(snapshot)]
            reference_uri = f"snapshot:{snapshot}"
            artifact = snapshot
        if spec.backend == "ingest":
            wal_dir, generations_dir = run_dir / "wal", run_dir / "generations"
            serve_args += [
                "--ingest-wal", str(wal_dir), "--generations", str(generations_dir),
            ]
        spans_path = run_dir / "server_spans.json" if traced and last else None
        server = Server(serve_args, run_dir, spans_path)
        try:
            start_s = server.wait_ready()
        except BaseException:
            server.stop()
            raise
        setup_s.append(time.perf_counter() - t0 - extra_s)
        if not last:
            server.stop()
            shutil.rmtree(run_dir)
            continue
        result = SetUp(
            market=market, model=model, server=server, reference_uri=reference_uri,
            setup_s=setup_s, fit_s=fit_s, fit_peak_rss_mb=rss_mb,
            server_start_s=start_s, snapshot_bytes=dir_bytes(artifact),
            wal_dir=wal_dir, generations_dir=generations_dir,
        )
    assert result is not None
    return result


def fit_quality(setup: SetUp) -> Tuple[float, float]:
    """(precision, modularity) of the base fit, as the paper reports them."""
    from repro.eval.precision import PrecisionConfig, SamplingPrecisionEvaluator
    from repro.graph.modularity import modularity

    truth = {e.entity_id: e.scenario_id for e in setup.market.catalog.entities}
    report = SamplingPrecisionEvaluator(
        PrecisionConfig(n_topics=1000, items_per_topic=100)
    ).evaluate(setup.model.taxonomy, truth)
    q = modularity(
        setup.model.entity_graph, setup.model.clustering.dendrogram.root_partition()
    )
    return float(report.precision), float(q)


# -- the measured phase ---------------------------------------------------------


def get_json(server: Server, path: str) -> Dict[str, Any]:
    conn = Connection(server.host, server.port)
    try:
        status, body = conn.request(http_request("GET", path))
    finally:
        conn.close()
    if status != 200:
        raise CheckFailed(f"GET {path} answered {status}: {body[:200]!r}")
    return json.loads(body)


def health_floor_ms(server: Server, n: int = 50) -> float:
    """p50 of ``GET /v1/health``: what the socket, the edge and this
    generator cost before any layer below the edge does work. Paced like
    the workloads, because a server woken from idle answers slower than
    one kept busy by back-to-back requests."""
    conn = Connection(server.host, server.port)
    raw = http_request("GET", "/v1/health")
    times = []
    try:
        for _ in range(n):
            time.sleep(0.0025)
            t0 = time.perf_counter()
            conn.request(raw)
            times.append((time.perf_counter() - t0) * 1000.0)
    finally:
        conn.close()
    return median(times)


class CheckpointWatcher(threading.Thread):
    """Polls the WAL's CHECKPOINT sidecar, which the updater rewrites
    after each generation is swapped in: (time seen, applied_seq).

    ``GET /v1/metrics`` is not used for this: it takes the updater's
    state lock, which a fold holds for its whole duration, so a poll on
    the write connection would stall the writes queued behind it.
    """

    def __init__(self, wal_dir: Path):
        super().__init__(name="ledger-checkpoints", daemon=True)
        self._wal_dir = wal_dir
        self._halt = threading.Event()
        self._lock = threading.Lock()  # poll() runs on this thread and the caller's
        self.seen: List[Tuple[float, int]] = []

    def applied_seq(self) -> int:
        return self.seen[-1][1] if self.seen else 0

    def run(self) -> None:
        while not self._halt.is_set():
            self.poll()
            self._halt.wait(0.02)

    def poll(self) -> None:
        from repro.streaming.wal import read_checkpoint

        try:
            checkpoint = read_checkpoint(self._wal_dir)
        except (OSError, ValueError):
            return  # mid-rename; the next poll sees it
        with self._lock:
            if checkpoint and checkpoint.get("applied_seq", 0) > self.applied_seq():
                self.seen.append((time.perf_counter(), int(checkpoint["applied_seq"])))

    def stop(self) -> None:
        self._halt.set()
        self.join()


def measure(setup: SetUp, inputs: Inputs, seconds: float) -> Phase:
    server = setup.server
    phase = Phase()
    phase.floor_ms = health_floor_ms(server)
    warm_s = seconds * WARMUP_SHARE
    n_reads = sum(1 for s in inputs.schedules for r in s if r[1] == "read")
    step = max(1, n_reads // ANSWER_SAMPLES)

    watcher = CheckpointWatcher(setup.wal_dir) if setup.wal_dir else None
    if watcher:
        watcher.start()
    try:
        start = time.perf_counter() + 0.05
        phase.lo, phase.hi = start + warm_s, start + warm_s + seconds

        def sample_cpu() -> None:
            for k in range(E2E_WINDOWS + 1):
                edge = phase.lo + k * seconds / E2E_WINDOWS
                time.sleep(max(0.0, edge - time.perf_counter()))
                phase.cpu_edges.append(server.cpu_busy_s())
                if k == 0:
                    phase.cpu_lo = server.cpu_seconds()
            phase.cpu_hi = server.cpu_seconds()

        sampler = threading.Thread(target=sample_cpu, name="ledger-cpu")
        sampler.start()
        phase.per_conn = run_open_loop(
            server.host, server.port, inputs.schedules, start,
            keep_body=lambda kind, index: kind == "write" or index % step == 0,
        )
        sampler.join()
        phase.samples = [s for conn in phase.per_conn for s in conn]
        acked = [
            json.loads(s.body)["last_seq"]
            for s in phase.samples if s.kind == "write" and s.status == 200
        ]
        phase.last_acked_seq = max(acked, default=0)
        if watcher:
            drain(server, inputs, watcher, phase)
    finally:
        if watcher:
            watcher.stop()
            phase.checkpoints = watcher.seen
    phase.metrics = get_json(server, "/v1/metrics")
    phase.rss_peak_mb = server.rss_peak_mb()
    phase.wal_bytes = dir_bytes(setup.wal_dir)
    phase.generations_bytes = dir_bytes(setup.generations_dir)
    return phase


def wait_applied(server: Server, seq: int, what: str, timeout_s: float = 90.0) -> None:
    """Block until ``/v1/metrics`` (which waits for a running fold) says
    the updater has applied every event up to ``seq``."""
    deadline = time.perf_counter() + timeout_s
    while get_json(server, "/v1/metrics")["updater"]["applied_seq"] < seq:
        if time.perf_counter() > deadline:
            raise CheckFailed(f"{what}: seq {seq} was not applied within {timeout_s:.0f} s")
        time.sleep(0.01)


def drain(server: Server, inputs: Inputs, watcher: CheckpointWatcher, phase: Phase) -> None:
    """Post the drain batches, then time until the updater has folded
    them into generations.

    The drain starts on an idle updater (the timed phase's last writes
    applied), so it is five full micro-batches whatever the run left
    queued, and ends with the generation that covers the last of them.
    """
    acked_before = phase.last_acked_seq
    wait_applied(server, acked_before, "before the drain")
    conn = Connection(server.host, server.port)
    t0 = time.perf_counter()
    try:
        for raw in inputs.drain:
            status, body = conn.request(raw)
            if status != 200:
                raise CheckFailed(f"drain batch answered {status}: {body[:200]!r}")
            phase.last_acked_seq = json.loads(body)["last_seq"]
    finally:
        conn.close()
    wait_applied(server, phase.last_acked_seq, "drain")
    watcher.poll()
    phase.drain_events = max(watcher.applied_seq() - acked_before, 0)
    phase.drain_s = watcher.seen[-1][0] - t0 if phase.drain_events else 0.0


# -- checks ---------------------------------------------------------------------


def check_outputs(
    spec: WorkloadSpec, setup: SetUp, inputs: Inputs, phase: Phase,
    precision: float, modularity: float,
) -> None:
    """Raise :class:`CheckFailed` unless every output is right."""
    from repro.api import BatchRequest, SearchRequest, open_backend

    bad = [s for s in phase.samples if s.status == 0 or s.status >= 500]
    if bad:
        raise CheckFailed(
            f"{len(bad)} requests hit a connection error or a 5xx "
            f"(first status {bad[0].status})"
        )
    if precision < 0.95 or modularity <= 0.3:
        raise CheckFailed(
            f"fit quality: precision {precision:.4f} (need >= 0.95), "
            f"modularity {modularity:.4f} (need > 0.3)"
        )
    if spec.backend == "ingest":
        updater = phase.metrics.get("updater") or {}
        if updater.get("applied_seq", 0) < phase.last_acked_seq:
            raise CheckFailed(
                f"applied_seq {updater.get('applied_seq')} is behind the last "
                f"acknowledged seq {phase.last_acked_seq} after the drain"
            )
        for counter in ("events_duplicate", "swap_failures"):
            if updater.get(counter, 0):
                raise CheckFailed(f"updater reports {counter}={updater[counter]}")
        return  # answers change with every generation; nothing fixed to compare
    # Sampled answers against the same artifacts opened in this process.
    reference = open_backend(setup.reference_uri, cache_size=0)
    try:
        checked = 0
        for schedule, samples in zip(inputs.schedules, phase.per_conn):
            for sample in samples:
                if sample.kind != "read" or not sample.body:
                    continue
                payload = schedule[sample.index][3]
                if "queries" in payload:
                    expected = reference.batch(
                        BatchRequest(queries=tuple(payload["queries"]), k=payload["k"],
                                     kind="search")
                    )
                else:
                    expected = reference.search(
                        SearchRequest(query=payload["query"], k=payload["k"])
                    )
                # Through JSON once, as the wire answer was (tuples become lists).
                if json.loads(sample.body) != json.loads(json.dumps(expected.to_dict())):
                    raise CheckFailed(
                        f"answer for {payload!r} differs from the in-process backend"
                    )
                checked += 1
        if checked < ANSWER_SAMPLES // 2:
            raise CheckFailed(f"only {checked} answers were available to check")
    finally:
        reference.close()


# -- one run --------------------------------------------------------------------


def _raise_exit(signum, frame):
    raise SystemExit(128 + signum)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Set up, measure, check and tear down one workload; returns the run's document."""
    spec = WORKLOADS[workload]
    recorder = span_lib.Recorder()
    if trace:
        span_lib.install(recorder)
    signal.signal(signal.SIGTERM, _raise_exit)  # so the clean-up below runs
    setup: Optional[SetUp] = None
    with scratch_dir(workload) as work:
        try:
            calibration_s = calibrate()
            setup = set_up(spec, seed, work, trace, extra_fits=spec.fits(seconds) - 1)
            precision, modularity = fit_quality(setup)
            inputs = build_inputs(spec, setup.market, seed, seconds)
            phase = measure(setup, inputs, seconds)
            setup.server.stop()  # the traced server writes its spans now
            check_outputs(spec, setup, inputs, phase, precision, modularity)
            measured = timed(phase, "read") + timed(phase, "write")
            doc: Dict[str, Any] = {
                "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                "calibration_s": calibration_s,
                "inputs_sha256": inputs.sha256,
                "distinct_read_strings": inputs.n_distinct_reads,
                "ops_attempted": len(measured),
                "ops_failed": sum(1 for s in measured if s.status != 200),
                "ops_refused": sum(1 for s in measured if s.status == 429),
            }
            if trace:
                metrics = layer_metrics(
                    spec, setup, phase, recorder.collect()[0],
                    span_lib.load(str(setup.server.spans_path)), recorder.anchor,
                )
                if not 0.9 <= metrics["api.http.self_sum_share"] <= 1.1:
                    raise CheckFailed(
                        "per-layer self times sum to "
                        f"{metrics['api.http.self_sum_share']:.3f} of the dispatch span"
                    )
                if metrics["core.fit_unattributed_s"] > 0.1 * median(setup.fit_s):
                    raise CheckFailed("fit stages cover less than 90 % of the fit")
                units = catalogue.LAYER_UNITS
            else:
                metrics = end_to_end_metrics(spec, setup, phase, precision, modularity)
                doc["write_side"] = write_side_metrics(phase) if spec.write_rate else {}
                doc["spread"] = spreads(setup, phase)
                units = {name: catalogue.E2E_UNITS[name] for name in catalogue.DRIVER_END_TO_END}
            doc["metrics"] = {
                name: {"value": metrics[name], "unit": units[name]} for name in units
            }
            return doc
        finally:
            if setup is not None:
                setup.server.stop()


def print_metrics(doc: Dict[str, Any]) -> None:
    print(f"# {doc['workload']} seed={doc['seed']} seconds={doc['seconds']} "
          f"trace={doc['trace']} inputs={doc['inputs_sha256'][:12]} "
          f"calibration={doc['calibration_s']:.4f}s")
    rows = dict(doc["metrics"])
    for name, value in doc.get("write_side", {}).items():
        rows[name] = {"value": value, "unit": catalogue.E2E_UNITS[name]}
    for name, entry in rows.items():
        print(f"{name:45s} {entry['value']:14.6g} {entry['unit']}")


# -- the whole ledger -------------------------------------------------------------


def run_ledger(workloads: Sequence[str], seed: int, seconds: Optional[float],
               passes: Sequence[int], out: Optional[str]) -> int:
    """Every workload, each pass in a process of its own (so one run's
    memory high-water mark and caches cannot reach the next)."""
    ledger: Dict[str, Any] = {
        "ledger": 1, "seed": seed, **machine_info(),
        "catalogue": catalogue.as_document(), "workloads": {},
    }
    first_calibration: Optional[float] = None
    with scratch_dir("ledger") as docs:
        for workload in workloads:
            entry: Dict[str, Any] = {"why": WORKLOADS[workload].why}
            for trace in passes:
                calibration = calibrate()
                first_calibration = first_calibration or calibration
                if calibration > CALIBRATION_LIMIT * first_calibration:
                    print(
                        f"ledger: calibration before {workload} took {calibration:.4f} s, "
                        f"more than {CALIBRATION_LIMIT}x the first "
                        f"({first_calibration:.4f} s); the box is too busy to measure on",
                        file=sys.stderr,
                    )
                    return 3
                doc_path = docs / f"{workload}-{trace}.json"
                argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--trace", str(trace), "--out", str(doc_path)]
                if seconds is not None:
                    argv += ["--seconds", str(seconds)]
                code = subprocess.run(argv, stdout=subprocess.DEVNULL).returncode
                if code != 0:
                    print(f"ledger: {workload} --trace {trace} failed", file=sys.stderr)
                    return code
                doc = json.loads(doc_path.read_text())
                print_metrics(doc)
                entry["traced" if trace else "e2e"] = doc
            if "e2e" in entry and "traced" in entry:
                traced_p50 = entry["traced"]["metrics"]["client.read_p50_traced_ms"]["value"]
                entry["client.trace_overhead"] = (
                    traced_p50 / entry["e2e"]["metrics"]["read_p50_ms"]["value"]
                )
                print(f"{'client.trace_overhead':45s} "
                      f"{entry['client.trace_overhead']:14.6g} ratio")
            ledger["workloads"][workload] = entry
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(ledger, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"ledger written to {out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all of them, as a ledger)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"length of the timed phase (default: {E2E_SECONDS:.0f}, "
                             f"traced {TRACED_SECONDS:.0f}; the driver passes its run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 = end-to-end pass, 1 = traced per-layer pass "
                             "(default: both, as a ledger)")
    parser.add_argument("--out", default=None, help="write the JSON document here")
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds < 1.0:
        parser.error("--seconds must be at least 1")

    if args.workload is None or args.trace is None:
        passes = [0, 1] if args.trace is None else [args.trace]
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        return run_ledger(workloads, args.seed, args.seconds, passes, args.out)

    seconds = args.seconds or (TRACED_SECONDS if args.trace else E2E_SECONDS)
    try:
        doc = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    except (CheckFailed, ServerError) as exc:
        print(f"ledger: {args.workload}: {exc}", file=sys.stderr)
        return 1
    print_metrics(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": True,
        "attempted": doc["ops_attempted"],
        "failed": doc["ops_failed"],
        "metrics": doc["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
