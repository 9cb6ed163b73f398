"""Benchmark for the lix package: one closed-loop client driving `lix.cli.main`.

Usage, from the root of a source checkout:

    python3 lixbench/run.py --workload files|requests|simulate \
        --seed N --seconds S --trace 0|1

The run generates the workload's inputs from the seed, runs one warm-up
pass whose outputs are checked against references computed from the
inputs, then repeats the pass for S seconds in a single thread, each call
waiting for the previous one. Between passes it generates the inputs
again, at evenly spread times, so that it sets up SETUP_REPEATS times in
all. Every later pass must print byte-identical output.

Each measured time is divided by the machine's slowdown at that moment, as
a calibration kernel timed between calls shows it (see `Calibration`), so
the figures are times at nominal speed; uncorrected ones are kept in the
provenance. `setup_s` is the median set-up time. `wall_s`, `latency_p50_ms`
and `latency_p99_ms` are medians over passes of each pass's total, median
and tail call time; the tail is the highest percentile with at least 10 of
the pass's calls beyond it, or its slowest call when it has too few calls.

With `--trace 0` the last stdout line holds these end-to-end metrics; with
`--trace 1` untraced and traced passes alternate and it holds the per-layer
metrics from the traced ones (see lixbench/tracing.py). The line before it
records provenance. The program is imported from `src/` of the checkout and
never installed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 8   # set-ups per run, spread evenly over the measuring time
MIN_PASSES = 3
CAL_BLOCK_NS = 20_000_000  # calls between two runs of the calibration kernel


class ProgramMissing(Exception):
    """The checkout does not hold the lix sources."""


def load_program():
    """Import lix from src/ of the checkout, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "lix" / "__init__.py").is_file():
        raise ProgramMissing(f"no lix sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import lix
    import lix.cli
    if Path(lix.__file__).resolve().parent != (src / "lix").resolve():
        raise ProgramMissing(f"imported lix from {lix.__file__}, not {src}")
    return lix


class Calibration:
    """A fixed kernel of interpreter and numpy work, timed between calls.

    Other tenants of a shared machine slow it by up to ~1.9x for stretches
    of seconds to minutes. The kernel's time over NOMINAL_NS, taken next to
    a call, is the machine's slowdown at that moment; the benchmark divides
    each measured time by it, so that it reports times at nominal speed.
    The kernel runs twice and only the second, warm run is timed, so that
    the slowdown does not depend on what the call left in the caches, and
    with the garbage collector off, so that it does not depend on how many
    objects the program keeps alive.
    """

    NOMINAL_NS = 1_000_000  # the kernel's best time on an idle 2-vCPU Xeon VM

    def __init__(self):
        import numpy as np
        self._array = np.random.default_rng(0).random(65536)

    def _kernel(self) -> float:
        total = 0.0
        for i in range(600):
            fields = f"{i}.25,{i * 7},x".split(",")
            total += float(fields[0]) + int(fields[1])
        for i in range(8000):
            total += i * i
        self._array.cumsum()
        self._array[:8192].copy().sort()
        return total

    def slowdown(self) -> float:
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._kernel()
            start = time.perf_counter_ns()
            self._kernel()
            return (time.perf_counter_ns() - start) / self.NOMINAL_NS
        finally:
            if collecting:
                gc.enable()


def run_pass(ops, cli, cal: Calibration):
    """Call every op once; return [(code, stdout, stderr)], the latencies (ns)
    and the machine's slowdown around each call.

    The calibration kernel runs before the first call and after every
    CAL_BLOCK_NS of calls; a call's slowdown is the mean of the kernel runs
    around its block.
    """
    results, latencies, slowdowns = [], [], []
    clock = time.perf_counter_ns
    before, block_start, block_ns = cal.slowdown(), 0, 0
    for i, op in enumerate(ops):
        if op.precision is None:
            os.environ.pop("LIX_PRECISION", None)
        else:
            os.environ["LIX_PRECISION"] = op.precision
        out, err = io.StringIO(), io.StringIO()
        start = clock()
        try:
            code = cli.main(op.argv, out=out, err=err)
        except Exception as exc:  # counted as a failed operation
            code = f"raised {type(exc).__name__}: {exc}"
        latencies.append(clock() - start)
        results.append((code, out.getvalue(), err.getvalue()))
        block_ns += latencies[-1]
        if block_ns >= CAL_BLOCK_NS or i == len(ops) - 1:
            after = cal.slowdown()
            slowdowns += [(before + after) / 2] * (i + 1 - block_start)
            before, block_start, block_ns = after, i + 1, 0
    return results, latencies, slowdowns


def check_pass(ops, results, workloads) -> list:
    """Failure reason per op, or None where its output is correct."""
    reasons = []
    for op, (code, out, err) in zip(ops, results):
        reason = None
        if not isinstance(code, int):
            reason = code
        elif code == 1:
            reason = f"exit 1: {err.strip()[:200]}"
        elif "nan" in out.lower():
            reason = "NaN in output"
        else:
            try:
                op.check(code, out, err)
            except workloads.Mismatch as exc:
                reason = str(exc)
        reasons.append(reason and f"{op.argv[0]}: {reason}")
    return reasons


def tail_percentile(n: int) -> int:
    """Highest percentile, at most 99, with >= 10 samples beyond it; the
    maximum (100) when there are too few samples for any."""
    if n <= 20:
        return 100
    return min(99, (100 * (n - 10)) // n)


def rank(n: int, q: int) -> int:
    """1-based nearest rank of the q-th percentile of n samples."""
    return max(1, -(-q * n // 100))


def source_identity() -> dict:
    """The commit when the checkout is a git clone, and a digest of src/lix."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lix").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None):
    """Set up, measure and check one workload; return (result, provenance)."""
    lix = load_program()
    import numpy as np
    import tracing
    import workloads

    sizes = dict(sizes or workloads.SIZES[name])
    workdir = ROOT / ".lixbench_work" / f"{name}-{os.getpid()}"
    saved_precision = os.environ.get("LIX_PRECISION")
    cal = Calibration()
    setup_times, raw_setup_times = [], []

    def set_up(directory):
        """Generate and write the inputs, timed; the references are not."""
        shutil.rmtree(directory, ignore_errors=True)
        before = cal.slowdown()
        start = time.perf_counter()
        make_ops = workloads.build(name, seed, directory, sizes)
        raw_setup_times.append(time.perf_counter() - start)
        setup_times.append(raw_setup_times[-1] / ((before + cal.slowdown()) / 2))
        return make_ops()

    try:
        setup_tracer = tracing.Tracer()
        if trace:
            with tracing.installed(setup_tracer):
                ops = workloads.build(name, seed, workdir / "inputs", sizes)()
        else:
            ops = set_up(workdir / "inputs")

        cli = lix.cli
        reference, _, _ = run_pass(ops, cli, cal)  # warm-up pass, checked in full
        reasons = check_pass(ops, reference, workloads)
        attempted, failures = len(ops), [r for r in reasons if r]

        def account(results):
            nonlocal attempted
            attempted += len(ops)
            for i, res in enumerate(results):
                if res != reference[i]:
                    failures.append(f"{ops[i].argv[0]}: output differs from the "
                                    f"warm-up pass: {res[0]!r} {res[1][:80]!r}")
                elif reasons[i]:
                    failures.append(reasons[i])

        latencies, raw_latencies, traced_walls = [], [], []
        pass_tracer = tracing.Tracer()
        start = time.perf_counter()
        deadline = start + seconds
        while (len(latencies) < MIN_PASSES or time.perf_counter() < deadline
               or not trace and len(setup_times) < SETUP_REPEATS):
            results, lat, slowdowns = run_pass(ops, cli, cal)
            raw_latencies.append(lat)
            latencies.append([t / f for t, f in zip(lat, slowdowns)])
            account(results)
            if trace:
                with tracing.installed(pass_tracer):
                    results, lat, slowdowns = run_pass(ops, cli, cal)
                traced_walls.append(sum(t / f for t, f in zip(lat, slowdowns)) / 1e9)
                account(results)
            elif (len(setup_times) < SETUP_REPEATS and time.perf_counter()
                  >= start + seconds * len(setup_times) / SETUP_REPEATS):
                set_up(workdir / "repeat")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()
        if saved_precision is None:
            os.environ.pop("LIX_PRECISION", None)
        else:
            os.environ["LIX_PRECISION"] = saved_precision

    stats = pass_statistics(latencies)
    rows = sum(op.rows for op in ops)
    samples = len(ops) * len(latencies)
    q = tail_percentile(samples)
    if trace:
        metrics = tracing.layer_metrics(pass_tracer.spans, len(traced_walls),
                                        setup_tracer.spans)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - stats["wall_s"]
    else:
        wall_s = stats["wall_s"]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall_s,
            "rows_per_s": rows / wall_s,
            "requests_per_s": len(ops) / wall_s,
            "latency_p50_ms": stats["latency_p50_ms"],
            "latency_p99_ms": stats["latency_p99_ms"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    units = {m["name"]: m["unit"] for m in _declared_metrics()}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    provenance = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        **source_identity(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "sizes": sizes, "ops_per_pass": len(ops), "rows_per_pass": rows,
        "setup_repeats": len(setup_times), "passes": len(latencies),
        "traced_passes": len(traced_walls),
        "latency": {"samples": samples, "tail_percentile": q,
                    "samples_beyond_tail": samples - rank(samples, q)},
        "uncorrected": {**pass_statistics(raw_latencies),
                        "setup_s": statistics.median(raw_setup_times)
                        if raw_setup_times else None},
        "error_rate": len(failures) / attempted,
        "failures": failures[:5],
    }
    if trace:
        provenance["spans"] = tracing.span_summary(pass_tracer.spans)
        provenance["trace_unit_errors"] = pass_tracer.unit_errors
    return result, provenance


def pass_statistics(latencies) -> dict:
    """`wall_s`, the median over passes of a pass's total, and the median and
    tail of all calls of all passes, from per-pass lists of latencies in ns."""
    pooled = sorted(t for lat in latencies for t in lat)
    q = tail_percentile(len(pooled))
    return {
        "wall_s": statistics.median(sum(lat) for lat in latencies) / 1e9,
        "latency_p50_ms": statistics.median(pooled) / 1e6,
        "latency_p99_ms": pooled[rank(len(pooled), q) - 1] / 1e6,
    }


def _declared_metrics() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"] + spec["per_layer"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["files", "requests", "simulate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result, provenance = run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace))
    except ProgramMissing as exc:
        print(f"lixbench: {exc}", file=sys.stderr)
        return 2
    for reason in provenance["failures"]:
        print(f"lixbench: failed: {reason}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
