"""A/B comparison of two checkouts on one lixbench workload.

Usage:

    python3 tools/ab.py BASE_DIR CHANGE_DIR --workload files \
        --seeds 801-810 --seconds 30

For each seed it runs `lixbench/run.py` (with `--trace 0`) once in each
checkout, one after the other, alternating which checkout runs first. Each
run is a fresh process started in its checkout, so it imports that
checkout's `src/`. It prints each run's metrics as it ends, then, for each
end-to-end metric that BENCHMARK.json declares, both sides' median and
quartiles, the change in the median, and the pairs the change won. A pair
with equal values is a tie and counts for neither side. A metric whose
change median is worse than the base median by more than its `bound` (a
fraction of the base median) is flagged `OVER BOUND`. A metric whose base
runs spread wider than its bound (quartile distance over `bound` times the
base median) is flagged `UNRESOLVED`, unless every change run beats every
base run: that spread cannot tell a change within the bound from one past it.
A metric is flagged `GAIN` when, over at least ten pairs, the change won at
least nine tenths of them and its median is better than the base median by
more than the base's quartile distance: the rule for claiming a gain.
The last two lines count each side's failed operations; the change's is
flagged `MORE FAILED` when a larger share of its operations failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# --workload's choices are the workloads of the checkout that holds this script.
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def parse_seeds(text: str) -> list[int]:
    """`801-810` or `801,805,809` (or a mix) as a list of seeds. An empty
    or descending range (`3-1`) is a ValueError."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        first, last = int(first), int(last or first)
        if last < first:
            raise ValueError(f"descending seed range {part!r}")
        seeds += range(first, last + 1)
    return seeds


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its result line (`correct`, `failed`, `metrics`)
    and, under `provenance`, the line before it."""
    proc = subprocess.run(
        [sys.executable, "lixbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"ab: {checkout} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return {**json.loads(lines[-1]), **json.loads(lines[-2])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metrics: list[dict], runs: dict[str, list[dict]]) -> list[str]:
    """One line per declared metric present in the runs, flagged when the
    change median is worse than the base's by more than the metric's bound,
    when the base's quartile distance exceeds the bound (unless every change
    run beats every base run), or when the change meets the gain rule; then
    each side's failed operations, the change's flagged when a larger share
    of them failed."""
    lines = [f"{'metric':<16}{'base median [q1, q3]':>34}{'change median [q1, q3]':>34}"
             f"{'change':>9}{'wins':>8}"]
    for m in metrics:
        name = m["name"]
        if name not in runs["base"][0]["metrics"]:
            continue
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        (b1, b2, b3), (c1, c2, c3) = quartiles(base), quartiles(change)
        rel = (c2 - b2) / b2 if b2 else float("nan")
        flags = ""
        if "bound" in m:
            if -sign * rel > m["bound"]:
                flags += f"  OVER BOUND {m['bound']:.0%}"
            beats_all = min(sign * c for c in change) > max(sign * b for b in base)
            if b3 - b1 > m["bound"] * abs(b2) and not beats_all:
                flags += f"  UNRESOLVED: base spread over {m['bound']:.0%}"
        if len(base) >= 10 and 10 * wins >= 9 * len(base) and sign * (c2 - b2) > b3 - b1:
            flags += "  GAIN"
        lines.append(f"{name:<16}{f'{b2:.4g} [{b1:.4g}, {b3:.4g}]':>34}"
                     f"{f'{c2:.4g} [{c1:.4g}, {c3:.4g}]':>34}{rel:>+9.1%}"
                     f"{f'{wins}/{len(base)}':>8}{flags}")
    share = {}
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        share[side] = failed / attempted if attempted else 0.0
        flag = "  MORE FAILED" if side == "change" and share["change"] > share["base"] else ""
        lines.append(f"{side}: {failed} of {attempted} operations failed{flag}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout measured as the base")
    parser.add_argument("change", type=Path, help="checkout measured as the change")
    parser.add_argument("--workload", required=True, choices=[
        w["name"] for w in json.loads(BENCHMARK.read_text(encoding="utf-8"))["workloads"]])
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="one pair of runs per seed: 801-810 or 801,805")
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = {"base": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            result = run_bench(getattr(args, side), args.workload, seed, args.seconds)
            runs[side].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"seed {seed} {side:<6} {values}", flush=True)
    print("\n".join(summarize(spec["end_to_end"], runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
