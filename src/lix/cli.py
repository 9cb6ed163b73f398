"""Command-line interface.

Exit codes: 0 success, 2 input/validation error, 1 internal error. Numeric
output uses 6 decimal places by default (`--precision`, or the
LIX_PRECISION environment variable). `--format json|csv` switches from the
human-readable table to machine output (default json for `calibrate-alpha`
and `study`). JSON is a list from `lix`, `lixi` and `compare`, else an object.

Each call builds its argparse parser afresh, and keeps no parser between
calls. When argv[0] names a command, only that command's subparser is built
(see `build_parser`); any other argv gets the parser with every command, so
help and usage errors read as they always have.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import sys

from . import costmodel, data_io, errors, portfolio, simlab
from .measures import (IntradayWindow, ScalingParams, lix_daily, lix_daily_many,
                       lix_intraday_raw, time_scale_to_daily)
from .orderbook import lixi_decomposed_many, lixi_many
from .comparative import MultiDayWindow, amihud_illiq, hui_heubel


# Decimal places past the 1074th are zeros for every float64 (2**-1074 is
# the smallest). Python refuses to format to 2**31 places or more, and
# below that would build a string of that many digits per value.
MAX_PRECISION = 1074


def _precision(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    if int(text) > MAX_PRECISION:
        raise argparse.ArgumentTypeError(
            f"expected at most {MAX_PRECISION} decimal places, got {text!r}")
    return int(text)


def _env_precision() -> int:
    """--precision's default: LIX_PRECISION under the flag's rule, else 6."""
    text = os.environ.get("LIX_PRECISION")
    if text is None:
        return 6
    try:
        return _precision(text)
    except argparse.ArgumentTypeError as exc:
        raise errors.InvalidParams(f"LIX_PRECISION: {exc}") from None


def _add_output_options(s):
    s.add_argument("--precision", type=_precision, default=None,
                   help="decimal places for numeric output "
                        "(default LIX_PRECISION, else 6)")
    s.add_argument("--format", choices=["text", "json", "csv"], default=None,
                   help="output format (default text; json for "
                        "calibrate-alpha and study)")


def _lix_arguments(s):
    s.add_argument("bars", help="CSV: date,open,high,low,close,volume")
    s.add_argument("--date", help="single ISO date to evaluate (default every day)")


def _lix_intraday_arguments(s):
    s.add_argument("--cum-volume", type=float, required=True)
    s.add_argument("--last-price", type=float, required=True)
    s.add_argument("--high", type=float, required=True)
    s.add_argument("--low", type=float, required=True)
    s.add_argument("--elapsed", type=float, required=True,
                   help="seconds since session open")
    s.add_argument("--session", type=float, required=True,
                   help="session length in seconds")
    s.add_argument("--alpha", type=float, default=0.5)


def _lixi_arguments(s):
    s.add_argument("snapshots", help="CSV: timestamp,side,level,price,volume")
    s.add_argument("--adv-from", required=True, metavar="BARS",
                   help="bar CSV used to compute average daily volume")
    s.add_argument("--adv-window", type=int, default=20)
    s.add_argument("--alpha", type=float, default=0.5)
    s.add_argument("--decompose", action="store_true",
                   help="also print the spread/depth/ADV term split (alpha=1/2)")


def _cost_arguments(s):
    s.add_argument("--shares", type=float, required=True)
    s.add_argument("--price", type=float, required=True)
    s.add_argument("--lix", type=float, required=True)
    s.add_argument("--slice-t", type=float, required=True,
                   help="seconds per slice")
    s.add_argument("--session", type=float, required=True)
    s.add_argument("--alpha", type=float, default=0.5)


def _basket_arguments(s):
    s.add_argument("positions", help="CSV: instrument,beta,lix")
    s.add_argument("--etf-lix", type=float, default=None,
                   help="ETF-share liquidity leg")
    s.add_argument("--strict", action="store_true",
                   help="reject weights not summing to 1 instead of normalizing")


def _compare_arguments(s):
    s.add_argument("bars")
    s.add_argument("--shares-outstanding", type=float, required=True)


def _calibrate_alpha_arguments(s):
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


def _study_arguments(s):
    s.add_argument("--instruments", type=int, default=50)
    s.add_argument("--days", type=int, default=20)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--snapshots", type=int, default=100)
    s.add_argument("--points-csv", default=None,
                   help="write per-instrument points to this CSV file")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `lix` parser with every subcommand, or with `command`'s only.

    `main` asks for one command's parser when argv[0] names it, since
    argparse can then pick no other; building one subparser instead of
    eight is most of the cost of a short call. That parser still lists
    every command in its usage line, which argparse prints on an
    unrecognized argument. The full parser leaves the metavar unset, as
    argparse names the missing command by it.
    """
    p = argparse.ArgumentParser(prog="lix",
                                description="Liquidity index toolkit")
    if command is None:
        sub = p.add_subparsers(dest="command", required=True)
    else:
        sub = p.add_subparsers(dest="command", required=True,
                               metavar="{" + ",".join(_COMMANDS) + "}")
    for name in _COMMANDS if command is None else [command]:
        help_text, add_arguments, _ = _COMMANDS[name]
        s = sub.add_parser(name, help=help_text)
        _add_output_options(s)
        add_arguments(s)
    return p


def _cell(value, precision: int) -> str:
    if isinstance(value, list):
        return ";".join(_cell(v, precision) for v in value)
    return f"{value:.{precision}f}" if isinstance(value, float) else str(value)


def _text_cells(values, precision: int) -> list:
    # A column holds values of one type; floats print to `precision` places.
    if not values or isinstance(values[0], str):
        return values
    if isinstance(values[0], float):
        return [f"{v:.{precision}f}" for v in values]
    return [_cell(v, precision) for v in values]


def _emit(columns, args, out, fmt=None, single=False):
    """Write a table given as {name: column of values}, whose columns each
    hold one type, in `fmt` (default `args.format`).

    Text and CSV format a column at a time, floats to `args.precision`
    places, and write the table at once. JSON rounds floats to that many
    places and prints the rows as a list of objects, or the one row as an
    object when `single`.
    """
    fmt = fmt or args.format
    p = args.precision
    if fmt == "json":
        values = [[round(v, p) for v in col] if col and isinstance(col[0], float)
                  else col for col in columns.values()]
        rows = [dict(zip(columns, row)) for row in zip(*values)]
        out.write(json.dumps(rows[0] if single else rows) + "\n")
        return
    cells = [_text_cells(col, p) for col in columns.values()]
    lines = [",".join(columns)] if fmt == "csv" else []
    lines += map(("," if fmt == "csv" else "  ").join, zip(*cells))
    if lines:
        out.write("\n".join(lines) + "\n")


def _emit_one(row, args, out):
    """Write one result, a dict: an object in JSON, else a one-row table."""
    _emit({name: [value] for name, value in row.items()}, args, out, single=True)


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
    results = lix_daily_many(bars)
    if args.date and isinstance(results[0], errors.LixError):  # the one day asked for
        raise type(results[0])(f"{bars.dates[0]}: {results[0]}")
    dates, values = bars.dates, results
    if not {float}.issuperset(map(type, results)):  # some day has no index
        dates, values = [], []
        for day, value in zip(bars.dates, results):
            if isinstance(value, errors.LixError):
                print(f"warning: {day}: {value}", file=err)
            else:
                dates.append(day)
                values.append(value)
    if len(dates) < len(bars):
        print(f"warning: skipped {len(bars) - len(dates)} day(s) with undefined index",
              file=err)
    if not dates:
        raise errors.EmptyDataset("every day in the input has an undefined index")
    _emit({"date": list(map(datetime.date.isoformat, dates)), "lix": values}, args, out)
    return 0


def _cmd_lix_intraday(args, out, err):
    window = IntradayWindow(elapsed=args.elapsed, session_length=args.session,
                            cum_volume=args.cum_volume, high_t=args.high,
                            low_t=args.low, last_price=args.last_price)
    raw = lix_intraday_raw(window)
    scaled = time_scale_to_daily(raw, args.elapsed, args.session,
                                 ScalingParams(args.alpha))
    _emit_one({"lix_raw": raw.value, "lix": scaled.value}, args, out)
    return 0


def _cmd_lixi(args, out, err):
    books = data_io.read_books(args.snapshots)
    if not len(books):
        raise errors.EmptyDataset(f"{args.snapshots}: no snapshots")
    ctx = data_io.compute_adv(_read_bars(args.adv_from), window_days=args.adv_window)
    params = ScalingParams(args.alpha)
    values = lixi_many(books, ctx, params)
    parts = lixi_decomposed_many(books, ctx) if args.decompose else [None] * len(values)
    for value, d in zip(values, parts):
        for result in (value, d):
            if isinstance(result, errors.LixError):
                raise result
    columns = {"timestamp": books.timestamps.tolist(), "lixi": values}
    if args.decompose:
        columns.update(spread_term=[d.spread_term for d in parts],
                       depth_term=[d.depth_term for d in parts],
                       adv_term=[d.adv_term for d in parts])
    _emit(columns, args, out)
    return 0


def _cmd_cost(args, out, err):
    plan = costmodel.ExecutionPlan(shares=args.shares, price=args.price,
                                   lix=args.lix, slice_interval=args.slice_t,
                                   session_length=args.session, alpha=args.alpha)
    row = {"price_impact": costmodel.price_impact(plan),
           "cost_single_shot": costmodel.cost_single_shot(plan),
           "cost_sliced": costmodel.cost_sliced(plan),
           "cost_per_unit": costmodel.cost_per_unit(plan)}
    _emit_one(row, args, out)
    return 0


def _cmd_basket(args, out, err):
    positions = data_io.parse_basket_positions(args.positions)
    if not positions:
        raise errors.EmptyBasket(f"{args.positions}: no positions")
    try:
        spec = portfolio.BasketSpec.build(positions, etf_lix=args.etf_lix,
                                          strict=args.strict)
    except errors.UnnormalizedWeights as exc:
        raise errors.UnnormalizedWeights(f"{exc}; drop --strict to normalize") from None
    if abs(spec.weight_sum - 1.0) > portfolio.WEIGHT_TOLERANCE:
        print(f"warning: weights sum to {spec.weight_sum:g}; normalizing", file=err)
    row = {"lix": portfolio.basket_lix(spec).value}
    if args.etf_lix is not None:
        row["lix_with_etf"] = portfolio.basket_with_etf_lix(spec).value
    _emit_one(row, args, out)
    return 0


def _cmd_compare(args, out, err):
    bars = _read_bars(args.bars)
    window = MultiDayWindow(bars=bars, shares_outstanding=args.shares_outstanding)
    try:
        lix = lix_daily(bars[-1]).value
    except errors.LixError as exc:
        raise type(exc)(f"{bars.dates[-1]}: {exc}") from None
    _emit({"measure": ["lix", "hui_heubel", "amihud_illiq"],
           "value": [lix, hui_heubel(window), amihud_illiq(window)]}, args, out)
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
    _emit_one(row, args, out)
    return 0


def _cmd_study(args, out, err):
    universe = simlab.default_universe(n_instruments=args.instruments,
                                       seed=args.seed)
    report, points = simlab.lixi_vs_lix_study(universe, days=args.days,
                                              seed=args.seed,
                                              snapshots_per_day=args.snapshots)
    if args.points_csv:
        columns = {"instrument": [pt.instrument_id for pt in points],
                   "mean_lix": [pt.mean_lix for pt in points],
                   "mean_lixi": [pt.mean_lixi for pt in points]}
        with open(args.points_csv, "w", encoding="utf-8", newline="") as f:
            _emit(columns, args, f, "csv")
    row = {"slope": report.slope, "intercept": report.intercept,
           "r_squared": report.r_squared, "n_points": report.n_points,
           "n_dropped": report.n_dropped}
    _emit_one(row, args, out)
    return 0


# name -> (help, argument adder, handler), in the order `lix -h` lists them.
_COMMANDS = {
    "lix": ("daily liquidity index from a bar file",
            _lix_arguments, _cmd_lix),
    "lix-intraday": ("intraday index, raw and scaled to the daily horizon",
                     _lix_intraday_arguments, _cmd_lix_intraday),
    "lixi": ("instantaneous index from book snapshots",
             _lixi_arguments, _cmd_lixi),
    "cost": ("execution-cost estimates implied by an index value",
             _cost_arguments, _cmd_cost),
    "basket": ("basket liquidity from a positions file",
               _basket_arguments, _cmd_basket),
    "compare": ("daily index vs Hui-Heubel vs Amihud",
                _compare_arguments, _cmd_compare),
    "calibrate-alpha": ("Monte Carlo estimate of the range-scaling exponent",
                        _calibrate_alpha_arguments, _cmd_calibrate_alpha),
    "study": ("snapshot-vs-daily liquidity regression on synthetic data",
              _study_arguments, _cmd_study),
}


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    if args.format is None:
        args.format = "json" if args.command in ("calibrate-alpha", "study") else "text"
    try:
        if args.precision is None:
            args.precision = _env_precision()
        return _COMMANDS[args.command][2](args, out, err)
    except (errors.LixError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=err)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
