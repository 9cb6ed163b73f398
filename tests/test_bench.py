"""tools/bench.py: the record it writes, from fake runs and a fake tier-1 timer."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PROVENANCE = {"commit": "abc", "src_sha256": "0" * 64, "python": "3.11.7",
              "numpy": "2.4.6", "nproc": 2, "seed": None}
TIER1 = {"seconds": 40.0, "exit_code": 0, "summary": "9 passed in 40.00s"}


def _fake_runs(monkeypatch, provenance=lambda seed: PROVENANCE):
    calls = []

    def run_bench(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed, seconds))
        return {"correct": True, "failed": seed % 2, "attempted": 10,
                "metrics": {m["name"]: {"value": seed * 1.0, "unit": m["unit"]}
                            for m in SPEC["end_to_end"]},
                "provenance": {**provenance(seed), "seed": seed}}
    monkeypatch.setattr(bench.ab, "run_bench", run_bench)
    monkeypatch.setattr(bench, "time_tier1", lambda: TIER1)
    return calls


def test_record_holds_each_workload_metric_and_the_runs_identity(monkeypatch, tmp_path):
    calls = _fake_runs(monkeypatch)
    out = tmp_path / "BENCH_9.json"
    assert bench.main([str(out)]) == 0
    names = [w["name"] for w in SPEC["workloads"]]
    seeds = [1001, 1002, 1003, 1004, 1005]
    assert calls == [(bench.ROOT, name, seed, SPEC["run_seconds"])
                     for name in names for seed in seeds]

    result = json.loads(out.read_text(encoding="utf-8"))
    assert {k: result[k] for k in bench.IDENTITY} == {k: PROVENANCE[k] for k in bench.IDENTITY}
    assert (result["seeds"], result["seconds"], result["tier1"]) == (
        seeds, SPEC["run_seconds"], TIER1)
    assert list(result["workloads"]) == names
    for workload in result["workloads"].values():
        # seeds 1001 and 1003 and 1005 each fail one operation of ten
        assert (workload["failed"], workload["attempted"]) == (3, 50)
        assert list(workload["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
        for m in SPEC["end_to_end"]:
            # values 1001..1005: median 1003, quartiles [1002, 1004]
            assert workload["metrics"][m["name"]] == {
                "unit": m["unit"], "median": 1003, "q1": 1002, "q3": 1004}


def test_runs_of_different_programs_are_refused(monkeypatch, tmp_path):
    calls = _fake_runs(monkeypatch, lambda seed: {**PROVENANCE, "src_sha256": str(seed)})
    out = tmp_path / "BENCH_9.json"
    with pytest.raises(SystemExit, match="different programs"):
        bench.main([str(out)])
    assert not out.exists()
    assert len(calls) == len(SPEC["workloads"]) * 5


def test_a_failing_tier1_run_is_refused_before_any_workload_runs(monkeypatch, tmp_path):
    calls = _fake_runs(monkeypatch)
    failing = {"seconds": 3.0, "exit_code": 1, "summary": "1 failed, 8 passed in 3.00s"}
    monkeypatch.setattr(bench, "time_tier1", lambda: failing)
    out = tmp_path / "BENCH_9.json"
    with pytest.raises(SystemExit, match="tier-1 tests failed .exit 1.: 1 failed"):
        bench.main([str(out)])
    assert not out.exists()
    assert calls == []
