"""tools/ab.py: seed lists and the summary of paired runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _run(**values):
    return {"failed": 0, "attempted": 10,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_seed_lists():
    assert ab.parse_seeds("801-803") == [801, 802, 803]
    assert ab.parse_seeds("7,9-10") == [7, 9, 10]


@pytest.mark.parametrize("seeds", ["3-1", "5,3-1"])
def test_descending_seed_range_is_a_usage_error(seeds, capsys):
    with pytest.raises(ValueError):
        ab.parse_seeds(seeds)
    with pytest.raises(SystemExit) as exc:
        ab.main(["base", "change", "--workload", "files", "--seeds", seeds])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err


def test_workload_choices_are_the_benchmark_workloads(monkeypatch, capsys):
    root = Path(ab.__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    monkeypatch.setattr(ab, "run_bench", lambda *args: _run(wall_s=1.0))
    for workload in spec["workloads"]:
        argv = [str(root), str(root), "--workload", workload["name"], "--seeds", "1"]
        assert ab.main(argv) == 0
    for name in ("bogus", "Files", ""):
        with pytest.raises(SystemExit) as exc:
            ab.main([str(root), str(root), "--workload", name, "--seeds", "1"])
        assert exc.value.code == 2
        assert "--workload: invalid choice" in capsys.readouterr().err


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    metrics = [{"name": "wall_s", "better": "lower"},
               {"name": "rows_per_s", "better": "higher"}]
    runs = {"base": [_run(wall_s=1.0, rows_per_s=5), _run(wall_s=2.0, rows_per_s=5),
                     _run(wall_s=3.0, rows_per_s=5)],
            "change": [_run(wall_s=0.5, rows_per_s=6), _run(wall_s=2.0, rows_per_s=4),
                       _run(wall_s=1.0, rows_per_s=5)]}
    wall, rows = ab.summarize(metrics, runs)[1:3]
    assert wall.startswith("wall_s") and wall.endswith("-50.0%     2/3")
    assert "2 [1.5, 2.5]" in wall  # base median [q1, q3]
    assert rows.startswith("rows_per_s") and rows.endswith("+0.0%     1/3")


def test_summary_flags_metrics_worse_than_their_bound():
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.25},
               {"name": "rows_per_s", "better": "higher", "bound": 0.25},
               {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
               {"name": "setup_s", "better": "lower", "bound": 0.25}]
    runs = {"base": [_run(wall_s=1.0, rows_per_s=100, peak_rss_mb=50, setup_s=1.0)],
            "change": [_run(wall_s=1.3, rows_per_s=70, peak_rss_mb=54, setup_s=0.5)]}
    wall, rows, rss, setup = ab.summarize(metrics, runs)[1:5]
    assert wall.endswith("+30.0%     0/1  OVER BOUND 25%")
    assert rows.endswith("-30.0%     0/1  OVER BOUND 25%")
    assert rss.endswith("+8.0%     0/1")  # worse, but within its bound
    assert setup.endswith("-50.0%     1/1")  # better by more than the bound


def test_summary_flags_metrics_whose_base_spread_exceeds_their_bound():
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.25},
               {"name": "rows_per_s", "better": "higher", "bound": 0.25},
               {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    # wall_s: base quartiles [1.1, 1.6] around 1.2, a spread of 42%; the
    # change wins every pair, but its slowest run is slower than the base's
    # fastest. rows_per_s spreads as widely, but every change run beats
    # every base run. peak_rss_mb spreads 2%.
    runs = {"base": [_run(wall_s=w, rows_per_s=r, peak_rss_mb=p)
                     for w, r, p in ((1.0, 100, 50), (1.2, 120, 51), (2.0, 200, 52))],
            "change": [_run(wall_s=w, rows_per_s=r, peak_rss_mb=p)
                       for w, r, p in ((0.9, 210, 50), (1.1, 220, 51), (1.3, 230, 52))]}
    wall, rows, rss = ab.summarize(metrics, runs)[1:4]
    assert wall.endswith("-8.3%     3/3  UNRESOLVED: base spread over 25%")
    assert rows.endswith("+83.3%     3/3")
    assert rss.endswith("+0.0%     0/3")


def test_summary_flags_a_larger_share_of_failed_operations():
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.25}]
    base = [{**_run(wall_s=1.0), "failed": 1, "attempted": 100}]
    for failed, attempted, flagged in ((1, 100, False), (1, 200, False), (2, 100, True),
                                       (1, 50, True)):
        change = [{**_run(wall_s=1.0), "failed": failed, "attempted": attempted}]
        lines = ab.summarize(metrics, {"base": base, "change": change})
        assert lines[-2] == "base: 1 of 100 operations failed"
        assert lines[-1] == (f"change: {failed} of {attempted} operations failed"
                             + ("  MORE FAILED" if flagged else ""))


@pytest.mark.parametrize("better, deltas, flagged", [
    ("lower", [-0.1] * 9 + [0.1], True),  # 9/10 wins, median 0.1 better
    ("lower", [-0.1] * 8 + [0.1] * 2, False),  # 8/10 wins
    ("lower", [-0.01] * 10, False),  # 10/10 wins within the base quartile distance
    ("lower", [-0.1] * 9, False),  # fewer than ten pairs
    ("higher", [0.1] * 10, True),
    ("higher", [-0.1] * 10, False),
], ids=["gain", "8-of-10", "within-spread", "9-pairs", "higher", "higher-worse"])
def test_summary_flags_a_gain_by_the_claim_rule(better, deltas, flagged):
    # ten base runs 1.00, 1.01, ..., 1.09: median 1.045, quartiles [1.0225, 1.0675]
    base = [1 + i / 100 for i in range(len(deltas))]
    runs = {"base": [_run(wall_s=b) for b in base],
            "change": [_run(wall_s=b + d) for b, d in zip(base, deltas)]}
    line = ab.summarize([{"name": "wall_s", "better": better, "bound": 0.25}], runs)[1]
    assert line.endswith("  GAIN") == flagged
    assert "OVER BOUND" not in line and "UNRESOLVED" not in line
