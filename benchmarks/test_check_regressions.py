"""The bench-regression gate's own verdicts, on canned measurements."""

from __future__ import annotations

import json

import pytest

import check_regressions

MEASURED = {"word2vec": 0.30, "serving_search_cold": 0.02}


@pytest.fixture
def gate(monkeypatch, tmp_path):
    """``main`` over a temp baseline, measuring ``MEASURED`` instantly."""
    monkeypatch.setattr(check_regressions, "calibrate", lambda: 0.1)
    monkeypatch.setattr(
        check_regressions, "measure", lambda profile, repeats: dict(MEASURED)
    )
    baseline = tmp_path / "baseline.json"

    def run(stages=None, *extra):
        if stages is not None:
            baseline.write_text(json.dumps({
                "profile": "small",
                "calibration_seconds": 0.1,
                "stages": stages,
            }))
        return check_regressions.main(["--baseline", str(baseline), *extra])

    return run


def test_update_then_gate_passes(gate):
    assert gate(None, "--update") == 0
    assert gate() == 0


def test_regressed_stage_exits_1(gate, capsys):
    assert gate({**MEASURED, "word2vec": 0.10}) == 1
    assert "REGRESSED" in capsys.readouterr().out


def test_stage_that_left_the_gate_is_not_comparable(gate, capsys):
    """A baseline row nothing measures any more must not pass silently."""
    assert gate({**MEASURED, "serving_search_warm": 0.008}) == 2
    out = capsys.readouterr().out
    assert "baseline lists unmeasured stage serving_search_warm" in out
    assert "--update" in out


def test_missing_baseline_and_other_profile_exit_2(gate):
    assert gate() == 2
    assert gate(MEASURED, "--profile", "tiny") == 2
