"""Inputs, operations and output checks for the three benchmark workloads.

A workload is a fixed list of `lix.cli.main` calls over inputs generated
from the seed. `build` generates and writes the inputs (the part the
benchmark times as set-up) and returns a function that makes the calls.
Every call carries a check that recomputes the expected output from the
generated inputs (numpy log10 of volume*close/range for `lix`, the VWAP
formula for `lixi`, fsum algebra for `basket`, the acceptance gate's bands
for `calibrate-alpha` and `study`), so a refactor that keeps values passes
and one that changes them does not.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from lix import data_io, simlab
from lix.measures import DailyBar

# Full sizes take ~0.7-1.8 s per pass on a 2-CPU machine at nominal speed.
# Bulk work is split over several calls of at most ~0.6 s, so that the
# calibration kernel timed around each call sees the machine's speed
# during it.
SIZES = {
    "files": {"file_sets": 4, "bar_rows": 5000, "books": 500, "levels": 10,
              "positions": 2500},
    "requests": {"calls": 1008},
    "simulate": {"paths": 4096, "steps": 4000, "calibrations": 2,
                 "instruments": 20, "days": 20, "snapshots": 100,
                 "sim_bar_days": 1000},
}

# Sizes for the benchmark's own smoke test.
TINY_SIZES = {
    "files": {"file_sets": 2, "bar_rows": 40, "books": 6, "levels": 3,
              "positions": 7},
    "requests": {"calls": 48},
    "simulate": {"paths": 64, "steps": 100, "calibrations": 2,
                 "instruments": 3, "days": 3, "snapshots": 5,
                 "sim_bar_days": 8},
}

# LIX_PRECISION per request, cycled so consecutive calls always differ;
# None leaves the variable unset (default 6 places).
PRECISION_CYCLE = (None, "3", "8", "0", "5")
ETF_LIX = 8.5
SHARES_OUTSTANDING = 1e8
ALPHA_GRID = tuple(i / 10 for i in range(1, 11))


class Mismatch(Exception):
    """An output differs from what the benchmark computed for it."""


@dataclass
class Op:
    """One `cli.main` call and the check of its (code, stdout, stderr)."""

    argv: list
    check: Callable[[int, str, str], None]
    rows: int = 0                  # CSV data rows the call reads
    precision: str | None = None   # LIX_PRECISION for the call


def build(name: str, seed: int, workdir: Path, sizes: dict) -> Callable[[], list]:
    """Generate and write the workload's inputs in a new directory; return a
    function that computes the expected outputs and returns the ops."""
    workdir.mkdir(parents=True)
    rng = np.random.default_rng([seed, list(SIZES).index(name)])
    return _BUILDERS[name](rng, seed, workdir, sizes)


# --- checks -----------------------------------------------------------------

def _decimals(cell: str) -> int:
    dot = cell.find(".")
    return 0 if dot < 0 else len(cell) - dot - 1


def _check_column(cells, expected, p: int, label: str) -> None:
    """Printed numbers have p decimals and match expected at that precision."""
    for cell in cells:
        if _decimals(cell) != p:
            raise Mismatch(f"{label}: {cell!r} does not have {p} decimals")
    got = np.array(cells, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if got.shape != expected.shape:
        raise Mismatch(f"{label}: {got.size} values, expected {expected.size}")
    tol = 0.5 * 10.0 ** -p + 1e-9 * np.maximum(1.0, np.abs(expected))
    bad = ~(np.abs(got - expected) <= tol)
    if bad.any():
        i = int(np.argmax(bad))
        raise Mismatch(f"{label}[{i}]: printed {cells[i]}, expected {float(expected[i])!r}")


def _csv_columns(out: str, header: list) -> list:
    lines = out.splitlines()
    if not lines or lines[0] != ",".join(header):
        raise Mismatch(f"header {lines[:1]}, expected {','.join(header)}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise Mismatch("ragged CSV output")
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in header]


def _expect_ok(code: int, err: str) -> None:
    if code != 0:
        raise Mismatch(f"exit {code}: {err.strip()[:200]}")


def _table_check(expected: dict, p: int):
    """Check CSV output with the expected dict's keys as header: label
    columns (lists of str) exactly, numbers at p decimal places."""
    header = list(expected)

    def check(code, out, err):
        _expect_ok(code, err)
        cols = dict(zip(header, _csv_columns(out, header)))
        for name, want in expected.items():
            if isinstance(want, list) and want and isinstance(want[0], str):
                if cols[name] != want:
                    raise Mismatch(f"{name}: labels differ from the input")
            else:
                _check_column(cols[name], want, p, name)
    return check


def _check_malformed(code, out, err):
    message = err.lower()
    if code != 2:
        raise Mismatch(f"malformed input exited {code}, expected 2")
    if "error" not in message or ("line" not in message and "utf-8" not in message):
        raise Mismatch(f"error without a location: {err.strip()[:200]}")


# --- reference formulas -------------------------------------------------------

@dataclass
class _Bars:
    dates: list
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray

    def lix(self) -> np.ndarray:
        return np.log10(self.volume * self.close / (self.high - self.low))

    def adv(self, window: int = 20) -> float:
        v = self.volume[-window:]
        return float(v[v > 0].mean())

    def compare(self) -> list:
        c, v = self.close[-5:], self.volume[-5:]
        p_high, p_low = self.high[-5:].max(), self.low[-5:].min()
        hui_heubel = ((p_high - p_low) / p_low) / (
            (c * v).sum() / (SHARES_OUTSTANDING * c.mean()))
        ret = np.abs(self.close[1:] / self.close[:-1] - 1.0)
        amihud = float(np.mean(ret / (self.close[1:] * self.volume[1:])))
        return [float(self.lix()[-1]), float(hui_heubel), amihud]


def _random_bars(rng, n: int, start: datetime.date) -> _Bars:
    close = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, n)))
    open_ = np.concatenate(([100.0], close[:-1]))
    high = np.maximum(open_, close) * (1 + rng.uniform(0.001, 0.02, n))
    low = np.minimum(open_, close) * (1 - rng.uniform(0.001, 0.02, n))
    volume = np.maximum(1.0, np.round(rng.lognormal(13.0, 0.5, n)))
    dates = [start + datetime.timedelta(days=i) for i in range(n)]
    return _Bars(dates, open_, high, low, close, volume)


def _write_bars(bars: _Bars, path: Path) -> None:
    data_io.write_daily_bars(
        [DailyBar(path.stem, d, float(o), float(h), float(lo), float(c), float(v))
         for d, o, h, lo, c, v in zip(bars.dates, bars.open, bars.high,
                                      bars.low, bars.close, bars.volume)],
        path)


def _random_books(rng, n: int, levels: int):
    mid = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.001, n)))
    half = mid * rng.uniform(0.0002, 0.002, n)
    tick = (mid * rng.uniform(0.0001, 0.0005, n))[:, None] * np.arange(levels)
    bid_p = (mid - half)[:, None] - tick
    ask_p = (mid + half)[:, None] + tick
    bid_v = rng.integers(100, 10000, (n, levels)).astype(float)
    ask_v = rng.integers(100, 10000, (n, levels)).astype(float)
    timestamps = 34200.0 + 0.25 * np.arange(n)
    return timestamps, bid_p, bid_v, ask_p, ask_v


def _write_books(path: Path, timestamps, bid_p, bid_v, ask_p, ask_v) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(data_io.BOOK_HEADER)
        for i, ts in enumerate(timestamps):
            for side, prices, vols in (("B", bid_p, bid_v), ("A", ask_p, ask_v)):
                for k in range(prices.shape[1]):
                    w.writerow([repr(float(ts)), side, k + 1,
                                repr(float(prices[i, k])), repr(float(vols[i, k]))])


def _lixi_reference(bid_p, bid_v, ask_p, ask_v, adv: float) -> dict:
    vwap_bid = (bid_p * bid_v).sum(axis=1) / bid_v.sum(axis=1)
    vwap_ask = (ask_p * ask_v).sum(axis=1) / ask_v.sum(axis=1)
    mid = (bid_p[:, 0] + ask_p[:, 0]) / 2
    volume = bid_v.sum(axis=1) + ask_v.sum(axis=1)
    gap = vwap_ask - vwap_bid
    return {"lixi": np.log10(volume * mid / gap) + 0.5 * np.log10(adv / volume),
            "spread_term": -np.log10(gap / mid),
            "depth_term": 0.5 * np.log10(volume),
            "adv_term": np.full(len(mid), 0.5 * math.log10(adv))}


def _write_positions(path: Path, ids, betas, lixes) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(data_io.POSITION_HEADER)
        for inst, beta, lix in zip(ids, betas, lixes):
            w.writerow([inst, repr(float(beta)), repr(float(lix))])


def _basket_reference(betas, lixes, etf_lix: float | None) -> dict:
    total = math.fsum(betas)
    lix = -math.log10(math.fsum(b / total * 10.0 ** -lv
                                for b, lv in zip(betas, lixes)))
    ref = {"lix": [lix]}
    if etf_lix is not None:
        ref["lix_with_etf"] = [math.log10(10.0 ** lix + 10.0 ** etf_lix)]
    return ref


# --- files --------------------------------------------------------------------

def _build_files(rng, seed, workdir, sizes):
    """Per file set: `lix`, `lixi --decompose --adv-from`, `basket --etf-lix`
    and `compare` over a bar, a book and a positions file."""
    sets = []
    for k in range(sizes["file_sets"]):
        bars = _random_bars(rng, sizes["bar_rows"], datetime.date(1900, 1, 1))
        bar_path = workdir / f"bars{k}.csv"
        _write_bars(bars, bar_path)
        books = _random_books(rng, sizes["books"], sizes["levels"])
        book_path = workdir / f"books{k}.csv"
        _write_books(book_path, *books)
        n_pos = sizes["positions"]
        betas = rng.uniform(0.5, 2.0, n_pos)
        lixes = rng.uniform(4.0, 10.0, n_pos)
        pos_path = workdir / f"positions{k}.csv"
        _write_positions(pos_path, [f"P{i:06d}" for i in range(n_pos)], betas, lixes)
        sets.append((bars, bar_path, books, book_path, betas, lixes, pos_path))

    def ops():
        p, fmt = 6, ["--format", "csv"]
        out = []
        for bars, bar_path, books, book_path, betas, lixes, pos_path in sets:
            dates = [d.isoformat() for d in bars.dates]
            timestamps, bid_p, bid_v, ask_p, ask_v = books
            lixi_ref = {"timestamp": timestamps,
                        **_lixi_reference(bid_p, bid_v, ask_p, ask_v, bars.adv())}
            out += [
                Op(["lix", str(bar_path), *fmt],
                   _table_check({"date": dates, "lix": bars.lix()}, p),
                   rows=len(dates)),
                Op(["lixi", str(book_path), "--adv-from", str(bar_path),
                    "--decompose", *fmt],
                   _table_check(lixi_ref, p),
                   rows=2 * bid_p.size + len(dates)),
                Op(["basket", str(pos_path), "--etf-lix", str(ETF_LIX), *fmt],
                   _table_check(_basket_reference(list(betas), list(lixes), ETF_LIX), p),
                   rows=len(betas)),
                Op(["compare", str(bar_path), "--shares-outstanding",
                    str(SHARES_OUTSTANDING), *fmt],
                   _table_check({"measure": ["lix", "hui_heubel", "amihud_illiq"],
                                 "value": bars.compare()}, p),
                   rows=len(dates)),
            ]
        return out
    return ops


# --- requests -----------------------------------------------------------------

def _malformed_bar_file(rng, kind: int, path: Path) -> None:
    """A bar CSV malformed by construction, one of the 8 fuzzing kinds."""
    header = "date,open,high,low,close,volume"
    day = datetime.date(2000, 1, 3) + datetime.timedelta(days=int(rng.integers(0, 5000)))
    low = round(float(rng.uniform(10, 100)), 2)
    good = f"{day},{low + 1},{low + 2},{low},{low + 1},{int(rng.integers(1, 10**6))}"
    if kind == 0:    # mangled header
        body = f"dote,open,high,low,close,volume\n{good}\n"
    elif kind == 1:  # wrong field count
        body = f"{header}\n{good.rsplit(',', 2)[0]}\n"
    elif kind == 2:  # non-numeric field
        body = f"{header}\n{day},fifty,{low + 2},{low},{low + 1},1000\n"
    elif kind == 3:  # non-finite field
        token = ("nan", "inf", "-inf")[int(rng.integers(0, 3))]
        body = f"{header}\n{day},{low + 1},{token},{low},{low + 1},1000\n"
    elif kind == 4:  # bad date
        body = f"{header}\n{day:%d/%m/%Y},{low + 1},{low + 2},{low},{low + 1},1000\n"
    elif kind == 5:  # duplicate date
        body = f"{header}\n{good}\n{good}\n"
    elif kind == 6:  # invariant violation: open below low
        body = f"{header}\n{day},{low - 1},{low + 2},{low},{low + 1},1000\n"
    else:            # bytes that are not UTF-8
        path.write_bytes(b"\xff" + rng.integers(0, 256, 63, dtype=np.uint8).tobytes())
        return
    path.write_text(body, encoding="utf-8")


# Each maker writes one request's inputs and returns its argv, a function
# giving the CSV columns it prints with their expected values, and the rows
# it reads.

def _lix_request(rng, path):
    bars = _random_bars(rng, 5, datetime.date(2013, 11, 18))
    _write_bars(bars, path)
    return (["lix", str(path)],
            lambda: {"date": [d.isoformat() for d in bars.dates], "lix": bars.lix()}, 5)


def _lixi_request(rng, path):
    bars = _random_bars(rng, 5, datetime.date(2013, 11, 18))
    _write_bars(bars, path)
    book = _random_books(rng, 1, 3)
    book_path = path.with_name(path.stem + "-book.csv")
    _write_books(book_path, *book)
    return (["lixi", str(book_path), "--adv-from", str(path)],
            lambda: {"timestamp": book[0],
                     "lixi": _lixi_reference(*book[1:], bars.adv())["lixi"]}, 6 + 5)


def _cost_request(rng, path):
    shares, price = float(rng.uniform(100, 1e5)), float(rng.uniform(5, 500))
    lix, session = float(rng.uniform(6, 10)), 28800.0
    slice_t = float(rng.uniform(10, session))

    def expected():
        factor = (session / slice_t) ** 0.5
        return {"price_impact": [shares * price / 10.0 ** lix * factor],
                "cost_single_shot": [0.5 * shares ** 2 * price / 10.0 ** lix * factor],
                "cost_sliced": [0.5 * shares * price / 10.0 ** lix * factor],
                "cost_per_unit": [10.0 ** -lix * 0.5 * factor]}
    return (["cost", "--shares", repr(shares), "--price", repr(price), "--lix", repr(lix),
             "--slice-t", repr(slice_t), "--session", repr(session)], expected, 0)


def _intraday_request(rng, path):
    low = float(rng.uniform(20, 200))
    high = low * float(rng.uniform(1.001, 1.05))
    last = float(rng.uniform(low, high))
    volume, session = float(rng.uniform(1e4, 1e7)), 28800.0
    elapsed = float(rng.uniform(60, session))

    def expected():
        raw = math.log10(volume * last / (high - low))
        return {"lix_raw": [raw], "lix": [raw + 0.5 * math.log10(session / elapsed)]}
    return (["lix-intraday", "--cum-volume", repr(volume), "--last-price", repr(last),
             "--high", repr(high), "--low", repr(low), "--elapsed", repr(elapsed),
             "--session", repr(session)], expected, 0)


def _basket_request(rng, path):
    betas, lixes = list(rng.uniform(0.2, 1.0, 3)), list(rng.uniform(4.0, 10.0, 3))
    _write_positions(path, [f"I{k}" for k in range(3)], betas, lixes)
    etf = ETF_LIX if rng.integers(0, 2) else None
    argv = ["basket", str(path)] + (["--etf-lix", str(etf)] if etf is not None else [])
    return argv, lambda: _basket_reference(betas, lixes, etf), 3


def _compare_request(rng, path):
    bars = _random_bars(rng, 5, datetime.date(2013, 11, 18))
    _write_bars(bars, path)
    return (["compare", str(path), "--shares-outstanding", str(SHARES_OUTSTANDING)],
            lambda: {"measure": ["lix", "hui_heubel", "amihud_illiq"],
                     "value": bars.compare()}, 5)


_REQUEST_MAKERS = (_lix_request, _lixi_request, _cost_request, _intraday_request,
                   _basket_request, _compare_request)
# Distinct inputs per request kind; calls cycle through them. Kept small:
# the set-up creates 9 * _POOL files, and on ext4 creating files gets slower
# the more files recent runs have created and deleted.
_POOL = 8


def _build_requests(rng, seed, workdir, sizes):
    """Alternate malformed bar files with small valid calls of six kinds."""
    malformed = []
    for k in range(8 * _POOL // 2):
        path = workdir / f"bad{k:03d}.csv"
        _malformed_bar_file(rng, k % 8, path)
        malformed.append(path)
    pools = [[make(rng, workdir / f"{make.__name__[1:]}{k:02d}.csv") for k in range(_POOL)]
             for make in _REQUEST_MAKERS]

    def ops():
        expected = [[(argv, want(), rows) for argv, want, rows in pool] for pool in pools]
        out = []
        for i in range(sizes["calls"]):
            prec = PRECISION_CYCLE[i % len(PRECISION_CYCLE)]
            j = i // 2
            if i % 2 == 0:
                out.append(Op(["lix", str(malformed[j % len(malformed)]), "--format", "csv"],
                              _check_malformed, precision=prec))
                continue
            argv, want, rows = expected[j % 6][(j // 6) % _POOL]
            out.append(Op(argv + ["--format", "csv"],
                          _table_check(want, 6 if prec is None else int(prec)),
                          rows=rows, precision=prec))
        return out
    return ops


# --- simulate -----------------------------------------------------------------

def _json_output(code, out, err) -> dict:
    _expect_ok(code, err)
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        raise Mismatch(f"not JSON: {out[:200]!r}") from None


def _calibrate_check(sizes):
    # Criterion 3's band applies from 4000 steps; the smoke test's tiny paths
    # only have to be well formed.
    full = sizes["steps"] >= 4000 and sizes["paths"] >= 4096

    def check(code, out, err):
        est = _json_output(code, out, err)
        if est.get("n_paths") != sizes["paths"] or est.get("time_grid") != list(ALPHA_GRID):
            raise Mismatch(f"calibrate-alpha echoed wrong parameters: {est}")
        if not (math.isfinite(est["alpha_hat"]) and math.isfinite(est["stderr"])):
            raise Mismatch(f"non-finite estimate: {est}")
        if full and not (0.48 <= est["alpha_hat"] <= 0.52 and est["stderr"] < 0.01):
            raise Mismatch(f"alpha outside criterion 3's band: {est}")
    return check


def _study_check(sizes, points_path: Path):
    # Criterion 6's bands apply from 20 instruments over 20 days.
    full = sizes["instruments"] >= 20 and sizes["days"] >= 20

    def check(code, out, err):
        rep = _json_output(code, out, err)
        if rep.get("n_points", 0) + rep.get("n_dropped", 0) != sizes["instruments"]:
            raise Mismatch(f"study lost instruments: {rep}")
        with open(points_path, newline="", encoding="utf-8") as f:
            points = list(csv.DictReader(f))
        if len(points) != rep["n_points"]:
            raise Mismatch(f"{len(points)} points written, report says {rep['n_points']}")
        xs = [float(pt["mean_lix"]) for pt in points]
        if full and not (rep["n_dropped"] == 0 and rep["r_squared"] >= 0.90
                         and 0.9 <= rep["slope"] <= 1.1
                         and min(xs) <= 5.3 and max(xs) >= 9.7):
            raise Mismatch(f"study outside criterion 6's bands: {rep}")
    return check


def _build_simulate(rng, seed, workdir, sizes):
    """calibrate-alpha (once per seed in a row) and study, plus `lix` over
    simulated sessions' bars."""
    model = simlab.PathModel(kind=simlab.WalkKind.GAUSSIAN_RETURNS, steps_per_day=250,
                             volatility_per_step=0.001, seed=seed)
    book = simlab.BookParams(n_snapshots=1, n_windows=1)
    day0 = datetime.date(2000, 1, 3)
    day_seeds = rng.integers(0, 2 ** 62, sizes["sim_bar_days"])
    sim_bars = [simlab.synth_session(model, 1e6, book, seed=int(s), instrument_id="SIM",
                                     day=day0 + datetime.timedelta(days=d))[0]
                for d, s in enumerate(day_seeds)]
    bar_path = workdir / "sim_bars.csv"
    data_io.write_daily_bars(sim_bars, bar_path)

    def ops():
        bars = _Bars([b.date for b in sim_bars],
                     *(np.array([getattr(b, k) for b in sim_bars])
                       for k in ("open", "high", "low", "close", "volume")))
        points_path = workdir / "points.csv"
        return [
            *(Op(["calibrate-alpha", "--model", "rw", "--paths", str(sizes["paths"]),
                  "--steps", str(sizes["steps"]), "--seed", str(seed + k)],
                 _calibrate_check(sizes))
              for k in range(sizes["calibrations"])),
            Op(["study", "--instruments", str(sizes["instruments"]),
                "--days", str(sizes["days"]), "--snapshots", str(sizes["snapshots"]),
                "--seed", str(seed), "--points-csv", str(points_path)],
               _study_check(sizes, points_path)),
            Op(["lix", str(bar_path), "--format", "csv"],
               _table_check({"date": [d.isoformat() for d in bars.dates],
                             "lix": bars.lix()}, 6),
               rows=len(sim_bars)),
        ]
    return ops


_BUILDERS = {"files": _build_files, "requests": _build_requests,
             "simulate": _build_simulate}
