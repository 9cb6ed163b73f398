"""Command-line interface.

Exit codes: 0 success, 2 input/validation error, 1 internal error. Numeric
output uses 6 decimal places by default (`--precision`, or the
LIX_PRECISION environment variable). `--format json|csv` switches from the
human-readable table to machine output (default json for `calibrate-alpha`
and `study`). Each command's handler returns its result, and `main` writes
it: a table ({name: column}) from the commands in `_TABLES`, else one row
({name: value}). JSON is a list from a table and an object from a row.

Each call builds its argparse parser afresh; no parser or width is kept
between calls. What is kept is each command's argument declarations, made on
the command's first use and shared by every parser built for it after (see
`_declarations`). When argv[0] names a command, only that command's own
parser is built and parses the rest of argv (see `build_parser`). An argv
that names no command, or that leaves an argument unrecognized, goes to the
parser with every command, so help and usage errors read as they always
have. The terminal width (`COLUMNS`) is read once per parser built, and wraps
help and usage as argparse's own default does.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import json
import os
import shutil
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


def _add_output_options(s, name):
    s.add_argument("--precision", type=_precision, default=None,
                   help="decimal places for numeric output "
                        "(default LIX_PRECISION, else 6)")
    s.add_argument("--format", choices=["text", "json", "csv"],
                   default="json" if name in ("calibrate-alpha", "study") else "text",
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


@functools.cache
def _declarations(name: str) -> argparse.ArgumentParser:
    """`name`'s arguments, declared once per process on an argument-only
    parser that every parser built for `name` takes as a parent.

    argparse adds a parent's Action objects to the child as they are, so
    no Action or metavar check is made again. Adding one points its
    `container` at the child's group, which only conflict_handler="resolve"
    reads; parsing and help change nothing of it. This parser never
    prints, so its formatter has a fixed width: argparse's default
    formatter would read the terminal once per argument declared.
    """
    d = argparse.ArgumentParser(prog=f"lix {name}", add_help=False,
                                formatter_class=functools.partial(argparse.HelpFormatter,
                                                                  width=80))
    _add_output_options(d, name)
    _COMMANDS[name][1](d)
    return d


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `lix` parser with every command, or `command`'s own parser.

    A command's own parser is the one the full parser's subparser for it
    would be: the same prog (`lix COMMAND`), arguments and help. `main`
    parses with it when argv[0] names the command, as argparse then hands
    the rest of argv to that subparser and to no other; building one
    parser instead of the `lix` parser, its subparsers and a subparser is
    most of the cost of a short call.

    Each parser is new, with its own `-h`, prog and width, but takes its
    command's arguments from `_declarations`, made once per process. The
    terminal width is read once here, as argparse's HelpFormatter reads it
    when given none (columns - 2), and every parser built gets it:
    subparsers do not inherit formatter_class.
    """
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    if command is not None:
        return argparse.ArgumentParser(prog=f"lix {command}", formatter_class=formatter,
                                       parents=[_declarations(command)])
    p = argparse.ArgumentParser(prog="lix", description="Liquidity index toolkit",
                                formatter_class=formatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, formatter_class=formatter,
                       parents=[_declarations(name)])
    return p


def _parse_args(argv: list) -> argparse.Namespace:
    """argv parsed as the full parser parses it, or argparse's SystemExit
    after it has printed help or a usage error.

    When argv[0] names a command, that command's own parser parses the
    rest of argv. An argv that names no command, or in which that parser
    leaves an argument unrecognized, goes to the full parser, so that
    argparse prints the `lix` usage line and message.
    """
    if argv and argv[0] in _COMMANDS:
        args, unrecognized = build_parser(argv[0]).parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not unrecognized:
            return args
    return build_parser().parse_args(argv)


def _cell(value, precision: int) -> str:
    if isinstance(value, list):
        return ";".join(_cell(v, precision) for v in value)
    return f"{value:.{precision}f}" if isinstance(value, float) else str(value)


def _text_cells(values, precision: int) -> list:
    # A column holds values of one type; floats print to `precision` places.
    if not values or isinstance(values[0], str):
        return values
    if isinstance(values[0], float):
        return list(map(f"{{:.{precision}f}}".format, values))  # one format per column
    return [_cell(v, precision) for v in values]


def _emit(columns, args, out, fmt, single=False):
    """Write a table given as {name: column of values}, whose columns each
    hold one type, in `fmt`.

    Text and CSV format a column at a time, floats to `args.precision`
    places, and write the table at once. JSON rounds floats to that many
    places and prints the rows as a list of objects, or the one row as an
    object when `single`.
    """
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


def _read_bars(path):
    """The bars of a bar file that must hold at least one data row."""
    bars = data_io.read_bars(path)
    if not len(bars):
        raise errors.EmptyDataset(f"{path}: no data rows")
    return bars


def _cmd_lix(args, err):
    bars = _read_bars(args.bars)
    if args.date is not None:
        try:
            wanted = datetime.date.fromisoformat(args.date)
        except ValueError:
            raise errors.ParseError(f"bad --date {args.date!r}") from None
        if wanted not in bars.dates:
            raise errors.EmptyDataset(f"no bar for {wanted} in {args.bars}")
        i = bars.dates.index(wanted)
        bars = bars[i:i + 1]
    results = lix_daily_many(bars)
    if args.date is not None and isinstance(results[0], errors.LixError):  # the one day asked for
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
    return {"date": list(map(datetime.date.isoformat, dates)), "lix": values}


def _cmd_lix_intraday(args, err):
    window = IntradayWindow(elapsed=args.elapsed, session_length=args.session,
                            cum_volume=args.cum_volume, high_t=args.high,
                            low_t=args.low, last_price=args.last_price)
    raw = lix_intraday_raw(window)
    scaled = time_scale_to_daily(raw, args.elapsed, args.session,
                                 ScalingParams(args.alpha))
    return {"lix_raw": raw.value, "lix": scaled.value}


def _cmd_lixi(args, err):
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
    return columns


def _cmd_cost(args, err):
    plan = costmodel.ExecutionPlan(shares=args.shares, price=args.price,
                                   lix=args.lix, slice_interval=args.slice_t,
                                   session_length=args.session, alpha=args.alpha)
    return {"price_impact": costmodel.price_impact(plan),
            "cost_single_shot": costmodel.cost_single_shot(plan),
            "cost_sliced": costmodel.cost_sliced(plan),
            "cost_per_unit": costmodel.cost_per_unit(plan)}


def _cmd_basket(args, err):
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
    return row


def _cmd_compare(args, err):
    bars = _read_bars(args.bars)
    window = MultiDayWindow(bars=bars, shares_outstanding=args.shares_outstanding)
    try:
        lix = lix_daily(bars[-1]).value
    except errors.LixError as exc:
        raise type(exc)(f"{bars.dates[-1]}: {exc}") from None
    return {"measure": ["lix", "hui_heubel", "amihud_illiq"],
            "value": [lix, hui_heubel(window), amihud_illiq(window)]}


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


def _cmd_calibrate_alpha(args, err):
    try:
        grid = [float(f) for f in args.grid.split(",") if f.strip()]
    except ValueError:
        raise errors.InvalidParams(f"bad --grid {args.grid!r}") from None
    model = _parse_model(args.model, args.steps, args.vol, args.seed)
    est = simlab.estimate_alpha(model, args.paths, grid)
    return {"alpha_hat": est.alpha_hat, "stderr": est.stderr,
            "n_paths": est.n_paths, "time_grid": list(est.time_grid)}


def _cmd_study(args, err):
    # --points-csv is opened before the study runs, so a bad path fails at
    # once; a study that fails leaves the file empty.
    try:
        points_csv = (contextlib.nullcontext() if args.points_csv is None
                      else open(args.points_csv, "w", encoding="utf-8", newline=""))
    except OSError as exc:
        raise OSError(f"--points-csv: {exc}") from None
    with points_csv as f:
        universe = simlab.default_universe(n_instruments=args.instruments,
                                           seed=args.seed)
        report, points = simlab.lixi_vs_lix_study(universe, days=args.days,
                                                  seed=args.seed,
                                                  snapshots_per_day=args.snapshots)
        if f is not None:
            columns = {"instrument": [pt.instrument_id for pt in points],
                       "mean_lix": [pt.mean_lix for pt in points],
                       "mean_lixi": [pt.mean_lixi for pt in points]}
            _emit(columns, args, f, "csv")
    return {"slope": report.slope, "intercept": report.intercept,
            "r_squared": report.r_squared, "n_points": report.n_points,
            "n_dropped": report.n_dropped}


# name -> (help, argument adder, handler), in the order `lix -h` lists them.
# handler(args, err) returns the result that `main` writes.
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
# The commands whose result is a table; every other command's is one row.
_TABLES = ("lix", "lixi", "compare")


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        if args.precision is None:
            args.precision = _env_precision()
        result = _COMMANDS[args.command][2](args, err)
        single = args.command not in _TABLES
        if single:
            result = {name: [value] for name, value in result.items()}
        _emit(result, args, out, args.format, single)
        return 0
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
