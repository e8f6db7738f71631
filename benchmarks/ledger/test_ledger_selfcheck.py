"""Fast self-tests of the ledger's own arithmetic (no server, no fit beyond ``tiny``)."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalogue  # noqa: E402
import compare  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
from loadgen import Sample, percentile, split_windows, windowed_percentile  # noqa: E402
from server import ROOT, SRC  # noqa: E402
from workloads import WORKLOADS, build_inputs  # noqa: E402

sys.path.insert(0, str(SRC))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# -- windows and percentiles ------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([1, 2, 3, 4], 50) == 2  # ceil(0.5 * 4) = rank 2
    with pytest.raises(ValueError):
        percentile([], 50)


def test_windows_split_by_time_and_drop_outsiders():
    stamped = [(0.5, 1.0), (1.5, 2.0), (2.5, 3.0), (3.0, 9.0), (-0.1, 9.0)]
    assert split_windows(stamped, 0.0, 3.0, 3) == [[1.0], [2.0], [3.0]]


def test_windowed_percentile_is_median_of_window_percentiles():
    # Three windows whose medians are 1, 10 and 100: the noisy window
    # moves the reported value no further than the middle one.
    stamped = [(w + i / 100.0, v) for w, v in ((0, 1.0), (1, 10.0), (2, 100.0))
               for i in range(20)]
    assert windowed_percentile(stamped, 0.0, 3.0, 3, 50) == 10.0


def test_tail_percentile_absent_without_ten_samples_beyond():
    stamped = [(i / 100.0, float(i)) for i in range(100)]  # one window of 100
    assert windowed_percentile(stamped, 0.0, 1.0, 1, 99, min_beyond=10) is None
    assert windowed_percentile(stamped, 0.0, 1.0, 1, 90, min_beyond=10) == 89.0


# -- self time ------------------------------------------------------------------------


def _span(name, start, end, parent=-1):
    return (name, start, end, parent, 1, 0, 0)


def test_self_time_subtracts_the_union_of_overlapping_children():
    tree = [
        _span("root", 0, 100),
        _span("a", 10, 50, parent=0),
        _span("b", 30, 70, parent=0),   # overlaps a on [30, 50]
        _span("c", 80, 120, parent=0),  # runs past its parent: clipped at 100
        _span("leaf", 35, 45, parent=2),
    ]
    assert spans.covered_ns([(10, 50), (30, 70), (80, 120)], 0, 100) == 80
    assert spans.self_times_ns(tree) == [20, 40, 30, 40, 10]


def test_self_times_by_name_sum_to_the_root_when_children_nest():
    tree = [
        _span("api.http.dispatch", 0, 100),
        _span("gateway", 5, 95, parent=0),
        _span("cache", 10, 20, parent=1),
        _span("backend", 20, 90, parent=1),
        _span("api.http.dispatch", 200, 260),  # starts outside the window
        _span("other.root", 0, 1000),
    ]
    by_name, n_roots, root_ns = spans.self_by_name_under(
        tree, spans.self_times_ns(tree), "api.http.dispatch", 0, 150
    )
    assert (n_roots, root_ns) == (1, 100)
    assert by_name == {"api.http.dispatch": 10, "gateway": 10, "cache": 10, "backend": 70}
    assert sum(by_name.values()) == root_ns


def test_recorder_nests_spans_per_thread_and_counts_cache_lookups():
    recorder = spans.Recorder()
    miss = object()
    lookup = recorder.wrap_cache_get(lambda key: miss if key == "cold" else key, miss)

    def inner():
        lookup("cold")
        lookup("warm")
        return [1, 2, 3]

    inner_wrapped = recorder.wrap(inner, "inner", bound=False)
    outer = recorder.wrap(lambda: inner_wrapped(), "outer", bound=False)
    outer()
    recorded, lookups = recorder.collect()
    assert [(s[0], s[3], s[6]) for s in recorded] == [("outer", -1, 3), ("inner", 0, 3)]
    assert lookups == {("inner", False): 1, ("inner", True): 1}


# -- inputs ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_market():
    from repro.data.marketplace import PROFILES, generate_marketplace

    return generate_marketplace(PROFILES["tiny"].with_seed(3))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tiny_market):
    spec = WORKLOADS[name]
    first = build_inputs(spec, tiny_market, seed=3, seconds=2.0)
    again = build_inputs(spec, tiny_market, seed=3, seconds=2.0)
    other = build_inputs(spec, tiny_market, seed=4, seconds=2.0)
    assert first.sha256 == again.sha256
    assert first.sha256 != other.sha256
    assert len(first.schedules) <= 2  # never more connections than cores
    for schedule in first.schedules:
        dues = [r[0] for r in schedule]
        assert dues == sorted(dues)


def test_run_length_changes_only_the_number_of_fits():
    xlarge = WORKLOADS["fit-xlarge"]
    assert [xlarge.fits(s) for s in (10.0, 20.0, 30.0)] == [1, 1, 2]
    assert all(spec.fits(30.0) == 1 for name, spec in WORKLOADS.items() if name != "fit-xlarge")


def test_cold_reads_never_repeat(tiny_market):
    inputs = build_inputs(WORKLOADS["read-cold-batch"], tiny_market, seed=3, seconds=2.0)
    queries = [q for s in inputs.schedules for r in s for q in r[3]["queries"]]
    assert len(queries) == len(set(queries)) == inputs.n_distinct_reads


# -- BENCHMARK.json <-> harness -----------------------------------------------------------


def test_benchmark_json_names_what_the_harness_emits():
    assert BENCHMARK["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: spec.why for name, spec in WORKLOADS.items()
    }
    # The driver's file lists what every workload prints with --trace 0;
    # its bounds are its own (sized to the spread across seeds).
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in catalogue.END_TO_END
        if m.name in catalogue.DRIVER_END_TO_END
    ]
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == catalogue.PER_LAYER
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    assert max(m["bound"] for m in BENCHMARK["end_to_end"]) == BENCHMARK["end_to_end"][0]["bound"]
    assert BENCHMARK["end_to_end"][0]["name"] == "setup_s"


def test_catalogue_document_is_a_baseline_with_predictions():
    doc = catalogue.as_document()
    assert len(doc["end_to_end"]) == 12
    assert all(m["claim"] is None and m["kind"] in ("relative", "absolute")
               for m in doc["end_to_end"])
    assert all(m["workloads"] == "all" or set(m["workloads"]) <= set(WORKLOADS)
               for m in doc["end_to_end"])
    assert all(m["moves"] for m in doc["per_layer"])
    by_name = {m["name"]: m["moves"] for m in doc["per_layer"]}
    assert by_name["text.bm25.top_k_us"].startswith("read_p50_ms")  # not core's, not text's
    assert by_name["core.incremental.advance_s"] != by_name["core.taxonomy_s"]


def test_metric_functions_emit_exactly_the_catalogue(tiny_market, tmp_path):
    """Both passes, on a synthetic run: every catalogued name, nothing else."""
    from repro.core.config import ShoalConfig
    from repro.core.pipeline import ShoalPipeline

    spec = WORKLOADS["mixed-ingest"]
    setup = metrics.SetUp(
        market=tiny_market, model=ShoalPipeline(ShoalConfig()).fit(tiny_market),
        server=None, reference_uri="", setup_s=[2.0, 2.2, 2.1], fit_s=[1.0, 1.2, 1.1],
        fit_peak_rss_mb=50.0, server_start_s=0.5, snapshot_bytes=1000,
        wal_dir=None, generations_dir=None,
    )
    reads = [
        Sample("read", 10.0 + i / 10, 10.0 + i / 10, 10.001 + i / 10, 200, b"{}", i)
        for i in range(50)
    ]
    writes = [
        Sample("write", 10.05 + i, 10.05 + i, 10.06 + i, 200,
               json.dumps({"accepted": 1, "last_seq": i + 1}).encode(), i)
        for i in range(5)
    ]
    phase = metrics.Phase(
        lo=10.0, hi=15.0, per_conn=[reads, writes], samples=reads + writes, floor_ms=0.3,
        cpu_lo=(1.0, 0.1), cpu_hi=(2.0, 0.2),
        cpu_edges=[1.0, 1.011, 1.022, 1.033, 1.044, 1.055], checkpoints=[(13.0, 3), (16.0, 5)],
        drain_s=2.0, drain_events=100, last_acked_seq=5,
        metrics={"updater": {"generations": 2, "events_applied": 5}},
        wal_bytes=500, generations_bytes=5000,
    )
    e2e = metrics.end_to_end_metrics(spec, setup, phase, precision=1.0, modularity=0.6)
    assert tuple(e2e) == catalogue.DRIVER_END_TO_END
    assert e2e["setup_s"] == 2.1 and e2e["fit_s"] == 1.0
    assert e2e["read_slo_share"] == 1.0
    # each 1 s window: 11 ms of CPU over 10 reads and 1 write
    assert e2e["server_cpu_ms_per_op"] == pytest.approx(1.0)
    write_side = metrics.write_side_metrics(phase)
    assert tuple(write_side) == catalogue.WRITE_SIDE
    assert write_side["fold_events_per_s"] == 50.0
    assert write_side["bytes_per_event"] == 1100.0
    # seq 1..3 are fresh at t=13, 4..5 at t=16; acks at 10.06 + i: median wait 1.94 s
    assert write_side["freshness_p50_s"] == pytest.approx(13.0 - 11.06)

    anchor = (0, 0)
    at = lambda seconds: int(seconds * 1e9)  # noqa: E731
    server_doc = {
        "anchor": list(anchor),
        "spans": [
            ("api.http.dispatch", at(11.0), at(11.0) + 100_000, -1, 1, 0, 1),
            ("api.middleware.gateway", at(11.0) + 10_000, at(11.0) + 90_000, 0, 1, 0, 1),
            ("streaming.updater.run_once", at(11.5), at(13.0), -1, 2, 0, 1),
            ("streaming.ingest.take_batch", at(11.5), at(12.0), 2, 2, 0, 40),
        ],
        "cache_lookups": [["api.middleware.cache", True, 3], ["api.middleware.cache", False, 1]],
    }
    layers = metrics.layer_metrics(spec, setup, phase, [], server_doc, anchor)
    assert list(layers) == [name for name, *_ in catalogue.PER_LAYER]
    assert layers["api.http.dispatch_self_us"] == pytest.approx(20.0)
    assert layers["api.middleware.gateway_self_us"] == pytest.approx(80.0)
    assert layers["api.http.self_sum_share"] == pytest.approx(1.0)
    assert layers["api.middleware.cache_hit_rate"] == 0.75
    assert layers["streaming.updater.fold_s"] == pytest.approx(1.0)  # after the batch was taken
    assert all(isinstance(v, float) for v in layers.values())
    # Work under the dispatch span that no reported metric covers shows in the share.
    server_doc["spans"].append(
        ("api.contract.encode", at(11.0) + 20_000, at(11.0) + 50_000, 1, 1, 0, 1)
    )
    layers = metrics.layer_metrics(spec, setup, phase, [], server_doc, anchor)
    assert layers["api.http.self_sum_share"] == pytest.approx(0.7)


# -- compare ------------------------------------------------------------------------------


def _ledger(workload="read-hot", seconds=30.0, sha="abc", spread=0.0, failed=0, **values):
    return {"seed": 11, "workloads": {workload: {"e2e": {
        "seconds": seconds, "inputs_sha256": sha,
        "metrics": {k: {"value": v, "unit": ""} for k, v in values.items()},
        "spread": {k: spread for k in values}, "ops_attempted": 100, "ops_failed": failed,
    }}}}


def _verdicts(base, new):
    return [r[-1] for r in compare.rows(base, new)]


def test_compare_verdicts():
    bound = {m.name: m.bound for m in catalogue.END_TO_END}["read_p50_ms"]
    base = _ledger(read_p50_ms=1.0)
    assert _verdicts(base, _ledger(read_p50_ms=1.0 + bound * 0.9)) == ["ok"]
    assert _verdicts(base, _ledger(read_p50_ms=0.5)) == ["ok"]  # better is never a regression
    assert _verdicts(base, _ledger(read_p50_ms=1.0 + bound * 1.5)) == ["regressed"]
    assert _verdicts(
        base, _ledger(read_p50_ms=1.0 + bound * 1.5, spread=bound * 2)
    ) == ["unresolved"]
    assert compare.failed_share(_ledger(read_p50_ms=1.0, failed=3)) == 0.03


def test_compare_absolute_bounds_zero_bases_and_unlisted_workloads():
    # 0.02 absolute on a share: 0.97 -> 0.955 holds, 0.97 -> 0.94 does not,
    # and no within-run spread excuses it.
    assert _verdicts(_ledger(read_slo_share=0.97), _ledger(read_slo_share=0.955)) == ["ok"]
    assert _verdicts(
        _ledger(read_slo_share=0.97), _ledger(read_slo_share=0.94, spread=1.0)
    ) == ["regressed"]
    # A base of zero divides nothing.
    zero = _ledger("mixed-ingest", freshness_p50_s=0.0)
    assert _verdicts(zero, zero) == ["ok"]
    assert _verdicts(zero, _ledger("mixed-ingest", freshness_p50_s=0.1)) == ["regressed"]
    # fit_s is gated on fit-xlarge only; a serving workload's base fit is context.
    assert _verdicts(_ledger(fit_s=1.0), _ledger(fit_s=2.0)) == []


def test_compare_refuses_different_inputs_and_flags_missing_rows(tmp_path, capsys):
    base = _ledger(read_p50_ms=1.0, read_slo_share=0.99)
    assert compare.mismatches(base, _ledger(read_p50_ms=1.0, read_slo_share=0.99)) == []
    assert compare.mismatches(base, _ledger(seconds=10.0, read_p50_ms=1.0))
    assert compare.mismatches(base, _ledger(sha="other", read_p50_ms=1.0))
    assert compare.mismatches(base, dict(_ledger(read_p50_ms=1.0), seed=12))
    # A metric or a whole workload dropped from NEW is not "ok".
    assert _verdicts(base, _ledger(read_p50_ms=1.0)) == ["ok", "missing"]
    assert _verdicts(base, {"seed": 11, "workloads": {}}) == ["missing", "missing"]
    paths = []
    for name, doc in (("a", base), ("b", _ledger(read_p50_ms=1.0)),
                      ("c", _ledger(seconds=10.0, read_p50_ms=1.0, read_slo_share=0.99))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    assert compare.main([str(paths[0]), str(paths[0])]) == 0
    assert compare.main([str(paths[0]), str(paths[1])]) == 1
    assert compare.main([str(paths[0]), str(paths[2])]) == 2
    capsys.readouterr()
