"""Smoke test of the benchmark itself at tiny sizes.

Run from the root of a checkout:  python3 -m pytest -q lixbench/test_smoke.py
"""

import json

import pytest

import run

WORKLOADS = ("files", "requests", "simulate")


@pytest.fixture(scope="module")
def workloads():
    run.load_program()
    import workloads
    return workloads


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, workloads):
    result, provenance = run.run_workload(name, seed=3, seconds=0.0, trace=trace,
                                          sizes=workloads.TINY_SIZES[name])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, provenance["failures"]
    assert result["attempted"] >= 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, m["name"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_stdout_is_byte_identical(name, workloads, tmp_path):
    import lix.cli
    import tracing
    ops = workloads.build(name, 5, tmp_path / name, workloads.TINY_SIZES[name])()
    cal = run.Calibration()
    plain, _, _ = run.run_pass(ops, lix.cli, cal)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced, _, _ = run.run_pass(ops, lix.cli, cal)
    assert tracer.spans and tracer.unit_errors == 0
    assert [r[:2] for r in traced] == [r[:2] for r in plain]
    assert not hasattr(lix.cli.main, "__wrapped__")  # originals restored
