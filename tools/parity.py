"""Compare the CLI output of two checkouts, case by case.

Usage:

    python3 tools/parity.py BASE_DIR CHANGE_DIR

It writes seeded input files to a temporary directory and builds a list of
`lix` command lines over them: every subcommand, in `--format text|csv|json`,
with LIX_PRECISION unset and set, and every fault the CSV readers name in
bar, book and position files (an open quote at the end of a file, blank
rows and quoted fields that span lines among them). Then it starts one child
process per checkout. Each child imports that checkout's `src/` and calls
`lix.cli.main(argv, out=, err=)` in-process for every case, recording the
exit code, stdout and stderr with the input directory written as `<dir>`.

Exit status: 0 when every case matches, 1 when any differs (each differing
case is listed with both outputs), 2 on a usage error or when a checkout
cannot run the cases.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

FORMATS = ("text", "csv", "json")
PRECISIONS = ("0", "3", "6", "9", "17")
BAR_HEADER = "date,open,high,low,close,volume"
BOOK_HEADER = "timestamp,side,level,price,volume"
POSITION_HEADER = "instrument,beta,lix"
SEED = 0  # of the input files and of the commands that draw random numbers
HUGE_FIELD = "9" * 140_000  # over the csv module's field limit: csv.Error


def _bar_rows(rng: random.Random, n: int) -> list[str]:
    day = 730000 + rng.randrange(5000)  # a proleptic ordinal around 2000
    rows = []
    for k in range(n):
        low = round(rng.uniform(10, 100), 2)
        high = round(low + rng.uniform(0.01, 5), 2)
        date = datetime.date.fromordinal(day + k).isoformat()
        rows.append(f"{date},{rng.uniform(low, high)!r},{high},{low},"
                    f"{rng.uniform(low, high)!r},{rng.randrange(1, 10**6)}")
    return rows


def _book_rows(rng: random.Random, n: int) -> list[str]:
    rows = []
    for t in rng.sample(range(1000), n):
        mid = rng.uniform(5, 500)
        half, tick = mid * rng.uniform(1e-4, 0.01), mid * rng.uniform(1e-4, 0.01)
        for side, sign in (("B", -1), ("A", 1)):
            for level in range(1, rng.randint(1, 5) + 1):
                price = mid + sign * (half + (level - 1) * tick)
                rows.append(f"{t / 4},{side},{level},{price!r},{rng.randrange(1, 5000)}")
    rng.shuffle(rows)  # books interleaved, levels out of order
    return rows


def _replace(rows: list[str], k: int, field: int, text: str) -> list[str]:
    cells = rows[k].split(",")
    cells[field] = text
    return rows[:k] + [",".join(cells)] + rows[k + 1:]


def _malformed(rng: random.Random, rows: list[str], faults: dict) -> dict:
    """{name: text} of a file per fault kind, each from the clean `rows`
    with one fault at a random row (after a blank row or a quoted field
    spanning lines for some), plus the kinds every reader shares."""
    k = rng.randrange(1, len(rows) - 1)
    files = {name: make(rows, k) for name, make in faults.items()}
    files.update(
        fields=rows[:k] + [rows[k].rsplit(",", 1)[0]] + rows[k + 1:],
        huge_field=_replace(rows, k, 1, HUGE_FIELD),
        open_quote_end=rows[:-1] + [rows[-1] + ',"unclosed'],
        open_quote_last_field=rows[:-1] + [rows[-1].rsplit(",", 1)[0] + ',"5'],
        blank_rows=rows[:k] + ["", ""] + rows[k:] + [""],
        blank_then_fault=rows[:k] + ["", ""] + _replace(rows, k, 2, "x")[k:],
        blank_then_open_quote=rows[:-1] + ["", ""] + [rows[-1].rsplit(",", 1)[0] + ',"5'],
        spanning=_replace(rows, k, -1, f'"{rows[k].rsplit(",", 1)[1]}\n"'),
        spanning_then_fault=_replace(_replace(rows, k - 1, -1, '"\n1\n"'), k, 2, "x"),
        crlf=[r + "\r" for r in rows],
    )
    return files


def _write_inputs(directory: Path) -> list[tuple[str, list, str | None]]:
    """Write the input files; return the cases as (name, argv, LIX_PRECISION)."""
    rng = random.Random(SEED)
    files, faulty = {}, {}
    bars = _bar_rows(rng, 30)
    flat = bars[7].split(",")
    bars[7] = ",".join([flat[0], flat[3], flat[3], flat[3], flat[3], flat[5]])
    files["bars"] = [BAR_HEADER] + bars
    files["bars_short"] = [BAR_HEADER] + bars[:3]
    hui_heubel_overflow = ["1,2,1,1.5,10"] * 6
    hui_heubel_overflow[1] = "1,1.7e308,1e-300,1,1"
    files["bars_hui_heubel_inf"] = [BAR_HEADER] + [
        f"2020-01-0{d},{row}" for d, row in enumerate(hui_heubel_overflow, 1)]
    amihud_overflow = ["1e-300,1,1e-300,1e-300,10", "1,1e300,1,1e300,10"] + ["1,2,1,1.5,10"] * 5
    files["bars_amihud_inf"] = [BAR_HEADER] + [
        f"2020-01-0{d},{row}" for d, row in enumerate(amihud_overflow, 1)]
    for name, text in _malformed(rng, bars, {
            "number": lambda r, k: _replace(r, k, 1, "fifty"),
            "non_finite": lambda r, k: _replace(r, k, 2, rng.choice(["nan", "inf", "-inf"])),
            "date": lambda r, k: _replace(r, k, 0, "03/01/2000"),
            "duplicate": lambda r, k: r[:k + 1] + [r[k - 1]] + r[k + 1:],
            "open_below_low": lambda r, k: _replace(r, k, 1, "0.5"),
            "negative_volume": lambda r, k: _replace(r, k, 5, "-1"),
            "header_only": lambda r, k: [],
            }).items():
        faulty[f"bars_{name}"] = [BAR_HEADER] + text

    book = _book_rows(rng, 12)
    files["book"] = [BOOK_HEADER] + book
    files["book_overflow"] = [BOOK_HEADER, "0,B,1,1e300,1e300", "0,B,2,9e299,1e300",
                              "0,A,1,1.1e300,1e300"]
    files["book_lixi_inf"] = [BOOK_HEADER, "0,B,1,1,1e308", "0,A,1,1.5,1e308"]
    for name, text in _malformed(rng, book, {
            "side": lambda r, k: _replace(r, k, 1, "X"),
            "level_text": lambda r, k: _replace(r, k, 2, "one"),
            "level_zero": lambda r, k: _replace(r, k, 2, "0"),
            "timestamp": lambda r, k: _replace(r, k, 0, "nan"),
            "price": lambda r, k: _replace(r, k, 3, "-1"),
            "duplicate": lambda r, k: r[:k + 1] + [r[k]] + r[k + 1:],
            "gap": lambda r, k: r + ["999,B,1,10,1", "999,B,3,9,1", "999,A,1,11,1"],
            "crossed": lambda r, k: r + ["999,B,1,12,1", "999,A,1,11,1"],
            "unordered": lambda r, k: r + ["999,B,1,10,1", "999,B,2,10.5,1", "999,A,1,11,1"],
            "one_sided": lambda r, k: r + ["999,B,1,10,1"],
            "header_only": lambda r, k: [],
            }).items():
        faulty[f"book_{name}"] = [BOOK_HEADER] + text

    positions = [f"P{i:02d},{rng.uniform(0.1, 2)!r},{rng.uniform(4, 10)!r}" for i in range(8)]
    files["positions"] = [POSITION_HEADER] + positions
    files["positions_unit"] = [POSITION_HEADER, "A,0.25,7", "B,0.25,8.5", "C,0.5,6"]
    files["positions_overflow"] = [POSITION_HEADER, "A,1e308,7", "B,1e308,7"]
    files["positions_underflow"] = [POSITION_HEADER, "A,1e-320,7", "B,1e308,7"]
    for name, text in _malformed(rng, positions, {
            "beta_text": lambda r, k: _replace(r, k, 1, "heavy"),
            "lix_nan": lambda r, k: _replace(r, k, 2, "nan"),
            "beta_zero": lambda r, k: _replace(r, k, 1, "0"),
            "header_only": lambda r, k: [],
            }).items():
        faulty[f"positions_{name}"] = [POSITION_HEADER] + text

    for name, lines in {**files, **faulty}.items():
        (directory / f"{name}.csv").write_text("".join(f"{x}\n" for x in lines),
                                               encoding="utf-8", newline="")
    (directory / "empty.csv").write_bytes(b"")
    (directory / "latin1.csv").write_bytes(f"{BAR_HEADER}\n".encode() + b"caf\xe9,1,2,1,1,1\n")
    (directory / "bad_header.csv").write_text("dote,open,high,low,close,volume\n")

    d = str(directory)
    intraday = ["--cum-volume", "350000", "--last-price", "50.25", "--high", "51",
                "--low", "49.5", "--elapsed", "7200", "--session", "23400"]
    cost = ["--shares", "50000", "--price", "25.5", "--lix", "7.25", "--slice-t", "600",
            "--session", "23400"]
    lixi = ["--adv-from", f"{d}/bars.csv"]
    small = ["--paths", "16", "--steps", "40", "--seed", str(SEED)]
    commands = {
        "lix": ["lix", f"{d}/bars.csv"],
        "lix_date": ["lix", f"{d}/bars.csv", "--date", bars[3].split(",")[0]],
        "lix_flat_date": ["lix", f"{d}/bars.csv", "--date", flat[0]],
        "lix_missing_date": ["lix", f"{d}/bars.csv", "--date", "2999-01-01"],
        "lix_bad_date": ["lix", f"{d}/bars.csv", "--date", "2020-13-01"],
        "lix_intraday": ["lix-intraday", *intraday],
        "lix_intraday_alpha_one": ["lix-intraday", *intraday, "--alpha", "1"],
        "lixi": ["lixi", f"{d}/book.csv", *lixi],
        "lixi_decompose": ["lixi", f"{d}/book.csv", *lixi, "--decompose"],
        "lixi_alpha": ["lixi", f"{d}/book.csv", *lixi, "--alpha", "0.6", "--adv-window", "5"],
        "lixi_overflow": ["lixi", f"{d}/book_overflow.csv", *lixi, "--decompose"],
        "lixi_inf": ["lixi", f"{d}/book_lixi_inf.csv", *lixi],
        "cost": ["cost", *cost],
        "cost_alpha_one": ["cost", *cost, "--alpha", "1"],
        "cost_alpha_zero": ["cost", *cost, "--alpha", "0"],
        "basket": ["basket", f"{d}/positions.csv"],
        "basket_etf": ["basket", f"{d}/positions.csv", "--etf-lix", "6.5"],
        "basket_unit_strict": ["basket", f"{d}/positions_unit.csv", "--strict",
                               "--etf-lix", "-0.0"],
        "basket_strict": ["basket", f"{d}/positions.csv", "--strict"],
        "basket_overflow": ["basket", f"{d}/positions_overflow.csv"],
        "basket_underflow": ["basket", f"{d}/positions_underflow.csv"],
        "basket_etf_nan": ["basket", f"{d}/positions.csv", "--etf-lix", "nan"],
        "compare": ["compare", f"{d}/bars.csv", "--shares-outstanding", "1e7"],
        "compare_short": ["compare", f"{d}/bars_short.csv", "--shares-outstanding", "1e7"],
        "compare_hui_heubel_inf": ["compare", f"{d}/bars_hui_heubel_inf.csv",
                                   "--shares-outstanding", "1e6"],
        "compare_amihud_inf": ["compare", f"{d}/bars_amihud_inf.csv",
                               "--shares-outstanding", "1e6"],
        "calibrate_rw": ["calibrate-alpha", *small],
        "calibrate_gauss": ["calibrate-alpha", "--model", "gauss", *small],
        "calibrate_t": ["calibrate-alpha", "--model", "t:5", "--grid", "0.25,0.5,1", *small],
        "calibrate_bad_dof": ["calibrate-alpha", "--model", "t:x", *small],
        "calibrate_one_fraction": ["calibrate-alpha", "--grid", "0.5", *small],
        "calibrate_bad_grid": ["calibrate-alpha", "--grid", "0.1,x", *small],
        "calibrate_vol_nan": ["calibrate-alpha", "--vol", "nan", *small],
        "study": ["study", "--instruments", "3", "--days", "2", "--snapshots", "5",
                  "--seed", str(SEED)],
        "study_no_snapshots": ["study", "--snapshots", "0", "--instruments", "2",
                               "--days", "1"],
        "empty_bars": ["lix", f"{d}/empty.csv"],
        "latin1_bars": ["lix", f"{d}/latin1.csv"],
        "bad_header_bars": ["compare", f"{d}/bad_header.csv", "--shares-outstanding", "1"],
        "missing_file": ["lix", f"{d}/absent.csv"],
    }
    for name in faulty:
        kind = name.partition("_")[0]
        if kind == "bars":
            commands[name] = ["lix", f"{d}/{name}.csv"]
            commands[f"adv_{name}"] = ["lixi", f"{d}/book.csv", "--adv-from", f"{d}/{name}.csv"]
        elif kind == "book":
            commands[name] = ["lixi", f"{d}/{name}.csv", *lixi]
        else:
            commands[name] = ["basket", f"{d}/{name}.csv", "--etf-lix", "7"]

    cases = [(f"{name}-{fmt}-{p or 'unset'}", argv + ["--format", fmt], p)
             for name, argv in commands.items() for fmt in FORMATS
             for p in (None, rng.choice(PRECISIONS))]
    cases += [("precision_env_text-text-abc", commands["lix"], "abc"),
              ("precision_env_huge-text-5000", commands["lix"], "5000"),
              ("usage_no_command-text-unset", [], None),
              ("usage_bogus-text-unset", ["bogus"], None),
              ("usage_missing_file_arg-text-unset", ["lix"], None),
              ("usage_bad_number-text-unset", ["cost", "--shares", "x", *cost[2:]], None),
              ("usage_precision-text-unset", ["lix", f"{d}/bars.csv", "--precision", "-1"],
               None)]
    return cases


def _child(cases_path: str, results_path: str) -> int:
    """Run every case of `cases_path` with the `lix` on sys.path; write
    [code, stdout, stderr] per case to `results_path`."""
    from lix.cli import main
    spec = json.loads(Path(cases_path).read_text(encoding="utf-8"))
    directory, results = spec["dir"], {}
    for name, argv, precision in spec["cases"]:
        os.environ.pop("LIX_PRECISION", None)
        if precision is not None:
            os.environ["LIX_PRECISION"] = precision
        out, err = io.StringIO(), io.StringIO()
        code = main(argv, out=out, err=err)
        results[name] = [code, *(s.getvalue().replace(directory, "<dir>") for s in (out, err))]
    Path(results_path).write_text(json.dumps(results), encoding="utf-8")
    return 0


def _run_checkout(checkout: Path, cases_path: Path, results_path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    proc = subprocess.run([sys.executable, __file__, "--child", str(cases_path),
                           str(results_path)], env=env, cwd=cases_path.parent,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(f"parity: {checkout} could not run the cases:\n{proc.stderr[-2000:]}")
        raise SystemExit(2)
    return json.loads(results_path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--child"]:  # one checkout's run, started by the parent below
        return _child(*argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout whose output is expected")
    parser.add_argument("change", type=Path, help="checkout compared with it")
    args = parser.parse_args(argv)
    for checkout in (args.base, args.change):
        if not (checkout / "src" / "lix" / "cli.py").is_file():
            parser.error(f"{checkout} has no src/lix/cli.py")

    with tempfile.TemporaryDirectory(prefix="lix-parity-") as tmp:
        directory = Path(tmp) / "inputs"
        directory.mkdir()
        cases = _write_inputs(directory)
        cases_path = Path(tmp) / "cases.json"
        cases_path.write_text(json.dumps({"dir": str(directory), "cases": cases}),
                              encoding="utf-8")
        base, change = (_run_checkout(checkout, cases_path, Path(tmp) / f"{side}.json")
                        for side, checkout in (("base", args.base), ("change", args.change)))
    differing = [name for name, _, _ in cases if base[name] != change[name]]
    for name in differing:
        print(f"--- {name}")
        for side, result in (("base", base[name]), ("change", change[name])):
            print(f"{side}: exit {result[0]}\n  stdout: {result[1]!r}\n  stderr: {result[2]!r}")
    print(f"parity: {len(cases)} cases, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
