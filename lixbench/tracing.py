"""Spans around the package's public functions, recorded from outside it.

`installed(tracer)` rebinds every public function of the lix modules to a
wrapper that records a span (name, start, end, parent, units, exception
class), in the defining module and under every name it was imported as
(`lix.cli.lix_daily`, `lix.simlab.lixi`, ...), and restores the originals
on exit. Spans stay in memory; `layer_metrics` turns them into the
per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "data_io", "measures", "orderbook", "portfolio",
          "comparative", "costmodel", "simlab")


def _books_rows(snapshots) -> int:
    return sum(len(s.bids) + len(s.asks) for s in snapshots)


# Work done by one call, from its bound arguments and result.
UNITS = {
    "data_io.parse_daily_bars": lambda a, r: len(r),
    "data_io.parse_book_snapshots": lambda a, r: _books_rows(r),
    "data_io.parse_basket_positions": lambda a, r: len(r),
    "data_io.write_daily_bars": lambda a, r: len(a["bars"]),
    "portfolio.basket_lix": lambda a, r: len(a["spec"].positions),
    "portfolio.basket_with_etf_lix": lambda a, r: len(a["spec"].positions),
    "simlab.estimate_alpha": lambda a, r: a["n_paths"] * a["model"].steps_per_day,
    "simlab.lixi_vs_lix_study": lambda a, r: len(a["universe"]) * a["days"],
    "simlab.synth_session": lambda a, r: len(r[1]),
}


class Tracer:
    """In-memory span recorder; one per traced phase of a run."""

    def __init__(self):
        # [name, start_ns, end_ns, parent index or -1, units, exception class]
        self.spans = []
        self.unit_errors = 0
        self._stack = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        units = UNITS.get(name)
        signature = inspect.signature(fn) if units else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if units:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[4] = units(bound.arguments, result)
                except (TypeError, KeyError, IndexError, AttributeError):
                    self.unit_errors += 1
            return result
        return traced


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not attr.startswith("_")):
            yield attr, obj


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the public functions of every lix layer for the with-block."""
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"lix.{layer}"]
        for attr, fn in _public_functions(module):
            wrappers[fn] = tracer.wrap(f"{layer}.{attr}", fn)
    rebound = []
    try:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "lix" and not mod_name.startswith("lix."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    rebound.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        yield tracer
    finally:
        for module, attr, obj in reversed(rebound):
            setattr(module, attr, obj)


class _Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "units", "entry_calls",
                 "entry_ns", "entry_units", "failures")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = self.units = 0
        self.entry_calls = self.entry_ns = self.entry_units = 0
        self.failures = Counter()


def span_stats(spans) -> dict:
    """Per span name: calls, total and self time, units, and the same for
    layer entries (spans whose parent is in another layer), whose failures
    are counted by exception class."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats = defaultdict(_Stat)
    for i, (name, start, end, parent, units, exc) in enumerate(spans):
        st = stats[name]
        duration = end - start
        st.calls += 1
        st.total_ns += duration
        st.self_ns += duration - child_ns[i]
        st.units += units
        layer = name.split(".", 1)[0]
        if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
            st.entry_calls += 1
            st.entry_ns += duration
            st.entry_units += units
            if exc:
                st.failures[exc] += 1
    return dict(stats)


def _layer_total(stats, layer, field):
    return sum(getattr(st, field) for name, st in stats.items()
               if name.split(".", 1)[0] == layer)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(pass_spans, passes: int, setup_spans) -> dict:
    """Per-layer metric values (name -> number) from traced passes.

    Times per call and rates are pooled over all traced passes; amounts
    (seconds, counts) are per pass. A layer the workload never enters
    reads 0.
    """
    stats = span_stats(pass_spans)
    setup = span_stats(setup_spans)
    get = lambda name: stats.get(name) or _Stat()  # noqa: E731
    main, parser = get("cli.main"), get("cli.build_parser")
    alpha, study = get("simlab.estimate_alpha"), get("simlab.lixi_vs_lix_study")
    synth = get("simlab.synth_session")
    write = setup.get("data_io.write_daily_bars") or _Stat()

    built = used = 0
    for name, start, end, parent, units, exc in pass_spans:
        if parent >= 0 and pass_spans[parent][0] == "simlab.lixi_vs_lix_study":
            if name == "simlab.synth_session":
                built += units
            elif name == "orderbook.lixi":
                used += 1

    failed = Counter()
    for name, st in stats.items():
        if name.startswith("data_io."):
            failed.update(st.failures)

    m = {
        "cli.main.self_ms": _ratio(main.self_ns, main.calls, 1e-6),
        "cli.build_parser.ms": _ratio(parser.total_ns, parser.calls, 1e-6),
        "cli.build_parser.share": _ratio(parser.total_ns, main.total_ns),
    }
    for kind in ("daily_bars", "book_snapshots", "basket_positions"):
        st = get(f"data_io.parse_{kind}")
        m[f"data_io.parse_{kind}.rows_per_s"] = _ratio(st.units, st.total_ns, 1e9)
    m["data_io.write_daily_bars.rows_per_s"] = _ratio(write.units, write.total_ns, 1e9)
    for exc in ("ParseError", "InvariantViolation"):
        m[f"data_io.failed.{exc}"] = _ratio(failed[exc], passes)
    m["measures.lix_daily.us_per_call"] = _ratio(
        get("measures.lix_daily").total_ns, get("measures.lix_daily").calls, 1e-3)
    for fn in ("lixi", "lixi_decomposed"):
        st = get(f"orderbook.{fn}")
        m[f"orderbook.{fn}.us_per_book"] = _ratio(st.total_ns, st.calls, 1e-3)
    m["portfolio.us_per_position"] = _ratio(
        _layer_total(stats, "portfolio", "entry_ns"),
        _layer_total(stats, "portfolio", "entry_units"), 1e-3)
    m["comparative.ms_per_call"] = _ratio(
        _layer_total(stats, "comparative", "entry_ns"),
        _layer_total(stats, "comparative", "entry_calls"), 1e-6)
    m["costmodel.us_per_call"] = _ratio(
        _layer_total(stats, "costmodel", "entry_ns"),
        _layer_total(stats, "costmodel", "entry_calls"), 1e-3)
    m["simlab.simulate_paths.s"] = _ratio(
        get("simlab.simulate_paths").total_ns, passes, 1e-9)
    m["simlab.estimate_alpha.self_s"] = _ratio(alpha.self_ns, passes, 1e-9)
    m["simlab.estimate_alpha.path_steps_per_s"] = _ratio(alpha.units, alpha.total_ns, 1e9)
    m["simlab.synth_session.ms_per_call"] = _ratio(synth.total_ns, synth.calls, 1e-6)
    m["simlab.lixi_vs_lix_study.self_s"] = _ratio(study.self_ns, passes, 1e-9)
    m["simlab.lixi_vs_lix_study.instrument_days_per_s"] = _ratio(
        study.units, study.total_ns, 1e9)
    m["simlab.study.snapshots_built"] = _ratio(built, passes)
    m["simlab.study.snapshots_used"] = _ratio(used, passes)
    m["simlab.study.snapshot_use_ratio"] = _ratio(used, built)
    return m


def span_summary(spans) -> dict:
    """Calls, total and self milliseconds and failures per span name."""
    return {name: {"calls": st.calls, "total_ms": round(st.total_ns / 1e6, 3),
                   "self_ms": round(st.self_ns / 1e6, 3),
                   **({"failed": dict(st.failures)} if st.failures else {})}
            for name, st in sorted(span_stats(spans).items())}
