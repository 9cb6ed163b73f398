"""Record this checkout's benchmark figures in one JSON file, BENCH_<n>.json.

Usage, from the root of a source checkout:

    python3 tools/bench.py BENCH_1.json

The tier-1 tests run once, timed; a run that fails is refused and no record
is written. Then each workload of BENCHMARK.json runs once per seed of the
fixed SEEDS, for BENCHMARK.json's `run_seconds` (`lixbench/run.py --trace
0`, through tools/ab.py's `run_bench`), so every record measures the same
inputs. For each end-to-end metric the record holds its unit and the median
and quartiles over those runs, and for each workload its failed and
attempted operations. The record also holds the seeds and run length, and
the commit, the digest of `src/lix` (`src_sha256`), Python, numpy and nproc
as the runs report them. Per-layer and per-stage timings are not recorded.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", Path(__file__).with_name("ab.py"))
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

# The provenance fields that name what was measured, the same in every run.
IDENTITY = ("commit", "src_sha256", "python", "numpy", "nproc")
# One run of each workload per seed, the same in every record.
SEEDS = list(range(1001, 1006))


def time_tier1() -> dict:
    """One run of the tier-1 tests: its wall time in seconds, exit code and
    pytest's summary line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"seconds": seconds, "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def record(spec: dict) -> dict:
    """Run the tier-1 tests, then every workload of `spec` (BENCHMARK.json)
    at each of SEEDS, and return the record."""
    tier1 = time_tier1()
    if tier1["exit_code"] != 0:
        raise SystemExit(f"bench: tier-1 tests failed (exit {tier1['exit_code']}): "
                         f"{tier1['summary']}")
    seconds = spec["run_seconds"]
    workloads, identities = {}, set()
    for w in spec["workloads"]:
        runs = [ab.run_bench(ROOT, w["name"], seed, seconds) for seed in SEEDS]
        identities |= {tuple(r["provenance"][k] for k in IDENTITY) for r in runs}
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, median, q3 = ab.quartiles(values)
            metrics[m["name"]] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3}
        workloads[w["name"]] = {"failed": sum(r["failed"] for r in runs),
                                "attempted": sum(r["attempted"] for r in runs),
                                "metrics": metrics}
    if len(identities) != 1:
        raise SystemExit(f"bench: runs measured different programs: {sorted(identities)}")
    return {**dict(zip(IDENTITY, identities.pop())), "seeds": SEEDS, "seconds": seconds,
            "workloads": workloads, "tier1": tier1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="the JSON file to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = record(spec)
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
