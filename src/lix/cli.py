"""Command-line interface.

Exit codes: 0 success, 2 input/validation error, 1 internal error. Numeric
output uses 6 decimal places by default (`--precision`, or the
LIX_PRECISION environment variable). `--format json|csv` switches from the
human-readable table to machine output (default json for `calibrate-alpha`
and `study`). JSON is a list from `lix`, `lixi` and `compare`, else an object.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

from . import costmodel, data_io, errors, portfolio, simlab
from .measures import (IntradayWindow, ScalingParams, lix_daily, lix_daily_many,
                       lix_intraday_raw, time_scale_to_daily)
from .orderbook import lixi_decomposed_many, lixi_many
from .comparative import MultiDayWindow, amihud_illiq, hui_heubel


def _non_negative_int(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _env_precision() -> int:
    """--precision's default: LIX_PRECISION under the flag's rule, else 6."""
    text = os.environ.get("LIX_PRECISION")
    if text is None:
        return 6
    try:
        return _non_negative_int(text)
    except argparse.ArgumentTypeError as exc:
        raise errors.InvalidParams(f"LIX_PRECISION: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=_non_negative_int, default=None,
                        help="decimal places for numeric output "
                             "(default LIX_PRECISION, else 6)")
    common.add_argument("--format", choices=["text", "json", "csv"], default=None,
                        help="output format (default text; json for "
                             "calibrate-alpha and study)")

    p = argparse.ArgumentParser(prog="lix",
                                description="Liquidity index toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("lix", parents=[common],
                       help="daily liquidity index from a bar file")
    s.add_argument("bars", help="CSV: date,open,high,low,close,volume")
    g = s.add_mutually_exclusive_group()
    g.add_argument("--date", help="single ISO date to evaluate")
    g.add_argument("--all", action="store_true", help="every day (default)")

    s = sub.add_parser("lix-intraday", parents=[common],
                       help="intraday index, raw and scaled to the daily horizon")
    s.add_argument("--cum-volume", type=float, required=True)
    s.add_argument("--last-price", type=float, required=True)
    s.add_argument("--high", type=float, required=True)
    s.add_argument("--low", type=float, required=True)
    s.add_argument("--elapsed", type=float, required=True,
                   help="seconds since session open")
    s.add_argument("--session", type=float, required=True,
                   help="session length in seconds")
    s.add_argument("--alpha", type=float, default=0.5)

    s = sub.add_parser("lixi", parents=[common],
                       help="instantaneous index from book snapshots")
    s.add_argument("snapshots", help="CSV: timestamp,side,level,price,volume")
    s.add_argument("--adv-from", required=True, metavar="BARS",
                   help="bar CSV used to compute average daily volume")
    s.add_argument("--adv-window", type=int, default=20)
    s.add_argument("--alpha", type=float, default=0.5)
    s.add_argument("--decompose", action="store_true",
                   help="also print the spread/depth/ADV term split (alpha=1/2)")

    s = sub.add_parser("cost", parents=[common],
                       help="execution-cost estimates implied by an index value")
    s.add_argument("--shares", type=float, required=True)
    s.add_argument("--price", type=float, required=True)
    s.add_argument("--lix", type=float, required=True)
    s.add_argument("--slice-t", type=float, required=True,
                   help="seconds per slice")
    s.add_argument("--session", type=float, required=True)
    s.add_argument("--alpha", type=float, default=0.5)

    s = sub.add_parser("basket", parents=[common],
                       help="basket liquidity from a positions file")
    s.add_argument("positions", help="CSV: instrument,beta,lix")
    s.add_argument("--etf-lix", type=float, default=None,
                   help="ETF-share liquidity leg")
    s.add_argument("--strict", action="store_true",
                   help="reject weights not summing to 1 instead of normalizing")

    s = sub.add_parser("compare", parents=[common],
                       help="daily index vs Hui-Heubel vs Amihud")
    s.add_argument("bars")
    s.add_argument("--shares-outstanding", type=float, required=True)

    s = sub.add_parser("calibrate-alpha", parents=[common],
                       help="Monte Carlo estimate of the range-scaling exponent")
    s.add_argument("--model", default="rw",
                   help="rw | gauss | t:<dof>")
    s.add_argument("--paths", type=int, default=100000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--steps", type=int, default=4000,
                   help="simulation steps per day")
    s.add_argument("--vol", type=float, default=0.01,
                   help="volatility per step")
    s.add_argument("--grid", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
                   help="comma-separated session fractions")

    s = sub.add_parser("study", parents=[common],
                       help="snapshot-vs-daily liquidity regression on synthetic data")
    s.add_argument("--instruments", type=int, default=50)
    s.add_argument("--days", type=int, default=20)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--snapshots", type=int, default=100)
    s.add_argument("--points-csv", default=None,
                   help="write per-instrument points to this CSV file")
    return p


def _cell(value, precision: int) -> str:
    if isinstance(value, list):
        return ";".join(_cell(v, precision) for v in value)
    return f"{value:.{precision}f}" if isinstance(value, float) else str(value)


def _emit_rows(rows, args, out, fmt=None):
    """Print one result (a dict) or a list of row dicts, whose keys are the
    columns, in `fmt` (default `args.format`). JSON rounds top-level floats."""
    fmt = fmt or args.format
    p = args.precision
    if fmt == "json":
        def rounded(r):
            return {k: (round(v, p) if isinstance(v, float) else v)
                    for k, v in r.items()}
        payload = rounded(rows) if isinstance(rows, dict) else list(map(rounded, rows))
        print(json.dumps(payload), file=out)
        return
    rows = [rows] if isinstance(rows, dict) else rows
    sep = "," if fmt == "csv" else "  "
    if fmt == "csv":
        print(",".join(rows[0]), file=out)
    for r in rows:
        print(sep.join(_cell(v, p) for v in r.values()), file=out)


def _read_bars(path):
    """The bars of a bar file that must hold at least one data row."""
    bars = data_io.read_bars(path)
    if not len(bars):
        raise errors.EmptyDataset(f"{path}: no data rows")
    return bars


def _cmd_lix(args, out, err):
    bars = _read_bars(args.bars)
    if args.date:
        try:
            wanted = datetime.date.fromisoformat(args.date)
        except ValueError:
            raise errors.ParseError(f"bad --date {args.date!r}") from None
        if wanted not in bars.dates:
            raise errors.EmptyDataset(f"no bar for {wanted} in {args.bars}")
        i = bars.dates.index(wanted)
        bars = bars[i:i + 1]
    rows = []
    skipped = 0
    for day, value in zip(bars.dates, lix_daily_many(bars)):
        if isinstance(value, errors.LixError):
            skipped += 1
            print(f"warning: {day}: {value}", file=err)
        else:
            rows.append({"date": day.isoformat(), "lix": value})
    if skipped:
        print(f"warning: skipped {skipped} day(s) with undefined index", file=err)
    if not rows:
        raise errors.EmptyDataset("every day in the input has an undefined index")
    _emit_rows(rows, args, out)
    return 0


def _cmd_lix_intraday(args, out, err):
    window = IntradayWindow(elapsed=args.elapsed, session_length=args.session,
                            cum_volume=args.cum_volume, high_t=args.high,
                            low_t=args.low, last_price=args.last_price)
    raw = lix_intraday_raw(window)
    scaled = time_scale_to_daily(raw, args.elapsed, args.session,
                                 ScalingParams(args.alpha))
    _emit_rows({"lix_raw": raw.value, "lix": scaled.value}, args, out)
    return 0


def _cmd_lixi(args, out, err):
    books = data_io.read_books(args.snapshots)
    if not len(books):
        raise errors.EmptyDataset(f"{args.snapshots}: no snapshots")
    ctx = data_io.compute_adv(_read_bars(args.adv_from), window_days=args.adv_window)
    params = ScalingParams(args.alpha)
    values = lixi_many(books, ctx, params)
    parts = lixi_decomposed_many(books, ctx) if args.decompose else [None] * len(values)
    rows = []
    for timestamp, value, d in zip(books.timestamps.tolist(), values, parts):
        for result in (value, d):
            if isinstance(result, errors.LixError):
                raise result
        row = {"timestamp": timestamp, "lixi": value}
        if args.decompose:
            row.update(spread_term=d.spread_term, depth_term=d.depth_term,
                       adv_term=d.adv_term)
        rows.append(row)
    _emit_rows(rows, args, out)
    return 0


def _cmd_cost(args, out, err):
    plan = costmodel.ExecutionPlan(shares=args.shares, price=args.price,
                                   lix=args.lix, slice_interval=args.slice_t,
                                   session_length=args.session, alpha=args.alpha)
    row = {"price_impact": costmodel.price_impact(plan),
           "cost_single_shot": costmodel.cost_single_shot(plan),
           "cost_sliced": costmodel.cost_sliced(plan),
           "cost_per_unit": costmodel.cost_per_unit(plan)}
    _emit_rows(row, args, out)
    return 0


def _cmd_basket(args, out, err):
    positions = data_io.parse_basket_positions(args.positions)
    if not positions:
        raise errors.EmptyBasket(f"{args.positions}: no positions")
    spec = portfolio.BasketSpec.build(positions, etf_lix=args.etf_lix,
                                      strict=args.strict)
    if abs(spec.weight_sum - 1.0) > portfolio.WEIGHT_TOLERANCE:
        print(f"warning: weights sum to {spec.weight_sum:g}; normalizing", file=err)
    row = {"lix": portfolio.basket_lix(spec).value}
    if args.etf_lix is not None:
        row["lix_with_etf"] = portfolio.basket_with_etf_lix(spec).value
    _emit_rows(row, args, out)
    return 0


def _cmd_compare(args, out, err):
    bars = _read_bars(args.bars)
    window = MultiDayWindow(bars=bars, shares_outstanding=args.shares_outstanding)
    rows = [{"measure": "lix", "value": lix_daily(bars[-1]).value},
            {"measure": "hui_heubel", "value": hui_heubel(window)},
            {"measure": "amihud_illiq", "value": amihud_illiq(window)}]
    _emit_rows(rows, args, out)
    return 0


def _parse_model(text: str, steps: int, vol: float, seed: int) -> simlab.PathModel:
    text = text.strip().lower()
    if text == "rw":
        kind, dof = simlab.WalkKind.ARITHMETIC_RANDOM_WALK, None
    elif text == "gauss":
        kind, dof = simlab.WalkKind.GAUSSIAN_RETURNS, None
    elif text.startswith("t:"):
        kind = simlab.WalkKind.STUDENT_T_RETURNS
        try:
            dof = float(text[2:])
        except ValueError:
            raise errors.InvalidParams(f"bad dof in --model {text!r}") from None
    else:
        raise errors.InvalidParams(f"unknown --model {text!r} (rw | gauss | t:<dof>)")
    return simlab.PathModel(kind=kind, steps_per_day=steps,
                            volatility_per_step=vol, seed=seed, dof=dof)


def _cmd_calibrate_alpha(args, out, err):
    try:
        grid = [float(f) for f in args.grid.split(",") if f.strip()]
    except ValueError:
        raise errors.InvalidParams(f"bad --grid {args.grid!r}") from None
    model = _parse_model(args.model, args.steps, args.vol, args.seed)
    est = simlab.estimate_alpha(model, args.paths, grid)
    row = {"alpha_hat": est.alpha_hat, "stderr": est.stderr,
           "n_paths": est.n_paths, "time_grid": list(est.time_grid)}
    _emit_rows(row, args, out)
    return 0


def _cmd_study(args, out, err):
    universe = simlab.default_universe(n_instruments=args.instruments,
                                       seed=args.seed)
    report, points = simlab.lixi_vs_lix_study(universe, days=args.days,
                                              seed=args.seed,
                                              snapshots_per_day=args.snapshots)
    if args.points_csv:
        rows = [{"instrument": pt.instrument_id, "mean_lix": pt.mean_lix,
                 "mean_lixi": pt.mean_lixi} for pt in points]
        with open(args.points_csv, "w", encoding="utf-8", newline="") as f:
            _emit_rows(rows, args, f, "csv")
    row = {"slope": report.slope, "intercept": report.intercept,
           "r_squared": report.r_squared, "n_points": report.n_points,
           "n_dropped": report.n_dropped}
    _emit_rows(row, args, out)
    return 0


_COMMANDS = {
    "lix": _cmd_lix,
    "lix-intraday": _cmd_lix_intraday,
    "lixi": _cmd_lixi,
    "cost": _cmd_cost,
    "basket": _cmd_basket,
    "compare": _cmd_compare,
    "calibrate-alpha": _cmd_calibrate_alpha,
    "study": _cmd_study,
}


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    if args.format is None:
        args.format = "json" if args.command in ("calibrate-alpha", "study") else "text"
    try:
        if args.precision is None:
            args.precision = _env_precision()
        return _COMMANDS[args.command](args, out, err)
    except errors.LixError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=err)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
