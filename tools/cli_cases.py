"""The `lix` CLI cases that `tests/golden_cli.json` pins (all but UNPINNED)
and `tools/parity.py` compares: one table, its input files and one runner.

A case is (name, argv, LIX_PRECISION or None), `{dir}` in argv standing for
the directory `write_inputs` fills. COMMANDS run on hand-written files in
every format at `--precision` 0, 6 and 17 (COMMAND-FORMAT-PRECISION). They,
more commands and every fault the CSV readers name run on seeded files in
every format with LIX_PRECISION unset and set (COMMAND-FORMAT-unset|envP).
"""

import datetime
import io
import itertools
import math
import os
import random
from unittest import mock

FORMATS = ("text", "csv", "json")

# 2020-01-06 has a zero price range: `lix` skips it with a warning.
BARS = """date,open,high,low,close,volume
2020-01-02,50.25,51.125,49.875,50.5,1234567
2020-01-03,50.5,52,50.125,51.75,2345678.5
2020-01-06,51,51,51,51,100000
2020-01-07,51.5,53.25,51.25,53,987654
2020-01-08,52.75,53.5,51.875,52,3456789
2020-01-09,52,52.625,50.5,50.875,1500000
2020-01-10,50.875,51.5,49.25,49.5,4321000
"""

BOOK = """timestamp,side,level,price,volume
1.5,B,1,99.75,1200
1.5,B,2,99.5,800
1.5,A,1,100.25,900
1.5,A,2,100.5,1500
0.25,B,1,49.9,300
0.25,A,1,50.1,250
0.25,A,2,50.3,700
0.25,A,3,50.45,1100
7,B,1,12.01,5000
7,A,1,12.03,4200
"""

POSITIONS = """instrument,beta,lix
AAA,0.4,7.25
BBB,0.35,8.5
CCC,0.2,5.75
DDD,0.15,9.125
"""

# Signed zeros and indices far outside [5, 10]: 10^400 overflows a float,
# so the algebra must rescale before it sums.
EXTREME_POSITIONS = """instrument,beta,lix
ZPOS,0.1,0.0
ZNEG,0.2,-0.0
HIGH,0.3,400
LOW,0.4,-400
"""

BAR_HEADER = "date,open,high,low,close,volume"
BOOK_HEADER = "timestamp,side,level,price,volume"
POSITION_HEADER = "instrument,beta,lix"

# The hand-written files; pinned errors show the header-only and empty ones' names.
SMALL_FILES = {"small_bars.csv": BARS, "small_book.csv": BOOK,
               "small_positions.csv": POSITIONS, "extreme.csv": EXTREME_POSITIONS,
               "book_header.csv": f"{BOOK_HEADER}\n",
               "positions_header.csv": f"{POSITION_HEADER}\n", "empty.csv": "",
               "latin1.csv": f"{BAR_HEADER}\ncaf\xe9,1,2,1,1,1\n",
               "bad_header.csv": "dote,open,high,low,close,volume\n"}

COST = ["--shares", "50000", "--price", "25.5", "--lix", "7.25", "--slice-t", "600",
        "--session", "23400"]
INTRADAY = ["--cum-volume", "350000", "--last-price", "50.25", "--high", "51",
            "--low", "49.5", "--elapsed", "7200", "--session", "23400"]
TINY_RUN = ["--paths", "4", "--steps", "20"]

# Both parts of the table run these, each on its own files and dates.
COMMANDS = {
    "lix": ["lix", "{bars}"],
    "lix_date": ["lix", "{bars}", "--date", "{day}"],
    "lix_zero_range_date": ["lix", "{bars}", "--date", "{flat_day}"],
    "lixi": ["lixi", "{book}", "--adv-from", "{bars}"],
    "lixi_decompose": ["lixi", "{book}", "--adv-from", "{bars}", "--decompose"],
    "compare": ["compare", "{bars}", "--shares-outstanding", "25000000"],
    "basket_etf": ["basket", "{positions}", "--etf-lix", "6.5"],
    "basket": ["basket", "{positions}"],
    "basket_extreme": ["basket", "{dir}/extreme.csv", "--etf-lix", "-0.0"],
    "basket_etf_nan": ["basket", "{positions}", "--etf-lix", "nan"],
    "cost": ["cost", *COST],
    "cost_alpha_one": ["cost", *COST, "--alpha", "1"],
    "cost_alpha_zero": ["cost", *COST, "--alpha", "0"],
    "lix_intraday": ["lix-intraday", *INTRADAY],
    "calibrate_alpha_vol_nan": ["calibrate-alpha", "--vol", "nan", *TINY_RUN],
    "lix_bad_date": ["lix", "{bars}", "--date", "2020-13-01"],
    "lix_empty_file": ["lix", "{dir}/empty.csv"],
    "lixi_no_snapshots": ["lixi", "{dir}/book_header.csv", "--adv-from", "{bars}"],
    "basket_no_positions": ["basket", "{dir}/positions_header.csv"],
    "calibrate_alpha_bad_dof": ["calibrate-alpha", "--model", "t:x", *TINY_RUN],
    "calibrate_alpha_bad_grid": ["calibrate-alpha", "--grid", "0.1,x", *TINY_RUN],
    "study_no_snapshots": ["study", "--snapshots", "0", "--instruments", "2", "--days", "1"],
}

SEED = 0  # of the seeded files and of the commands that draw random numbers
# The seeded bars' dates; the 8th day is flat.
DAYS = [(datetime.date(2001, 1, 2) + datetime.timedelta(k)).isoformat() for k in range(30)]
HUGE_FIELD = "9" * 140_000  # over the csv module's field limit: csv.Error


def _bar_rows(rng: random.Random) -> list[str]:
    rows = []
    for day in DAYS:
        low = round(rng.uniform(10, 100), 2)
        high = round(low + rng.uniform(0.01, 5), 2)
        rows.append(f"{day},{rng.uniform(low, high)!r},{high},{low},"
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


# Each fault kind maps the clean rows and a row k to a file with that fault.
FAULTS = {
    "bars": {
        "number": lambda r, k: _replace(r, k, 1, "fifty"),
        "non_finite": lambda r, k: _replace(r, k, 2, ("nan", "inf", "-inf")[k % 3]),
        "date": lambda r, k: _replace(r, k, 0, "03/01/2000"),
        "duplicate": lambda r, k: r[:k + 1] + [r[k - 1]] + r[k + 1:],
        "open_below_low": lambda r, k: _replace(r, k, 1, "0.5"),
        "negative_volume": lambda r, k: _replace(r, k, 5, "-1"),
    },
    "book": {
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
    },
    "positions": {
        "beta_text": lambda r, k: _replace(r, k, 1, "heavy"),
        "lix_nan": lambda r, k: _replace(r, k, 2, "nan"),
        "beta_zero": lambda r, k: _replace(r, k, 1, "0"),
    },
}
# The fault kinds every reader shares, some after a blank row or spanning line.
SHARED_FAULTS = {
    "header_only": lambda r, k: [],
    "fields": lambda r, k: r[:k] + [r[k].rsplit(",", 1)[0]] + r[k + 1:],
    "huge_field": lambda r, k: _replace(r, k, 1, HUGE_FIELD),
    "open_quote_end": lambda r, k: r[:-1] + [r[-1] + ',"unclosed'],
    "open_quote_last_field": lambda r, k: r[:-1] + [r[-1].rsplit(",", 1)[0] + ',"5'],
    "blank_rows": lambda r, k: r[:k] + ["", ""] + r[k:] + [""],
    "blank_then_fault": lambda r, k: r[:k] + ["", ""] + _replace(r, k, 2, "x")[k:],
    "blank_then_open_quote": lambda r, k: r[:-1] + ["", "", r[-1].rsplit(",", 1)[0] + ',"5'],
    "spanning": lambda r, k: _replace(r, k, -1, f'"{r[k].rsplit(",", 1)[1]}\n"'),
    "spanning_then_fault": lambda r, k: _replace(_replace(r, k - 1, -1, '"\n1\n"'), k, 2, "x"),
    "crlf": lambda r, k: [x + "\r" for x in r],
}


def _seeded_files() -> list:
    """(file name, text) of each seeded file."""
    rng = random.Random(SEED)
    bars = _bar_rows(rng)
    flat = bars[7].split(",")
    bars[7] = ",".join([flat[0], flat[3], flat[3], flat[3], flat[3], flat[5]])
    book = _book_rows(rng, 12)
    positions = [f"P{i:02d},{rng.uniform(0.1, 2)!r},{rng.uniform(4, 10)!r}" for i in range(8)]
    hui_heubel_overflow = ["1,2,1,1.5,10"] * 6
    hui_heubel_overflow[1] = "1,1.7e308,1e-300,1,1"
    amihud_overflow = ["1e-300,1,1e-300,1e-300,10", "1,1e300,1,1e300,10"] + ["1,2,1,1.5,10"] * 5
    files = [
        ("bars", [BAR_HEADER] + bars),
        ("bars_short", [BAR_HEADER] + bars[:3]),
        ("bars_hui_heubel_inf", [BAR_HEADER] + [
            f"2020-01-0{d},{row}" for d, row in enumerate(hui_heubel_overflow, 1)]),
        ("bars_amihud_inf", [BAR_HEADER] + [
            f"2020-01-0{d},{row}" for d, row in enumerate(amihud_overflow, 1)]),
        ("book", [BOOK_HEADER] + book),
        ("book_overflow", [BOOK_HEADER, "0,B,1,1e300,1e300", "0,B,2,9e299,1e300",
                           "0,A,1,1.1e300,1e300"]),
        ("book_lixi_inf", [BOOK_HEADER, "0,B,1,1,1e308", "0,A,1,1.5,1e308"]),
        ("positions", [POSITION_HEADER] + positions),
        ("positions_unit", [POSITION_HEADER, "A,0.25,7", "B,0.25,8.5", "C,0.5,6"]),
        ("positions_overflow", [POSITION_HEADER, "A,1e308,7", "B,1e308,7"]),
        ("positions_underflow", [POSITION_HEADER, "A,1e-320,7", "B,1e308,7"])]
    for (kind, faults), header, rows in zip(FAULTS.items(), (BAR_HEADER, BOOK_HEADER,
                                            POSITION_HEADER), (bars, book, positions)):
        k = rng.randrange(1, len(rows) - 1)
        files += [(f"{kind}_{fault}", [header] + make(rows, k))
                  for fault, make in [*faults.items(), *SHARED_FAULTS.items()]]
    # A basket the size of the benchmark's (lixbench `files`), drawn after
    # every other file so that none of theirs moves; once more with its
    # weights normalized, for --strict.
    betas = [rng.uniform(0.5, 2.0) for _ in range(2500)]
    lixes = [rng.uniform(4.0, 10.0) for _ in range(2500)]
    total = math.fsum(betas)
    for stem, weights in (("positions_bench", betas),
                          ("positions_bench_unit", [b / total for b in betas])):
        files.append((stem, [POSITION_HEADER] + [f"P{i:06d},{b!r},{v!r}" for i, (b, v)
                                                 in enumerate(zip(weights, lixes))]))
    return [(f"{stem}.csv", "".join(f"{x}\n" for x in lines)) for stem, lines in files]


def write_inputs(directory) -> None:
    """Fill the empty `directory`; a file name given twice raises FileExistsError."""
    for name, text in [*SMALL_FILES.items(), *_seeded_files()]:
        # Latin-1 writes ASCII as it is and latin1.csv's \xe9 as one byte, not UTF-8.
        with open(os.path.join(directory, name), "x", encoding="latin-1", newline="") as f:
            f.write(text)


SMALL_RUN = ["--paths", "16", "--steps", "40", "--seed", str(SEED)]
SEEDED_COMMANDS = {
    "lix_missing_date": ["lix", "{bars}", "--date", "2999-01-01"],
    "lix_intraday_alpha_one": ["lix-intraday", *INTRADAY, "--alpha", "1"],
    "lixi_alpha": ["lixi", "{book}", "--adv-from", "{bars}", "--alpha", "0.6",
                   "--adv-window", "5"],
    "lixi_overflow": ["lixi", "{dir}/book_overflow.csv", "--adv-from", "{bars}", "--decompose"],
    "lixi_inf": ["lixi", "{dir}/book_lixi_inf.csv", "--adv-from", "{bars}"],
    "basket_unit_strict": ["basket", "{dir}/positions_unit.csv", "--strict",
                           "--etf-lix", "-0.0"],
    "basket_strict": ["basket", "{positions}", "--strict"],
    "basket_overflow": ["basket", "{dir}/positions_overflow.csv"],
    "basket_underflow": ["basket", "{dir}/positions_underflow.csv"],
    "compare_short": ["compare", "{dir}/bars_short.csv", "--shares-outstanding", "1e7"],
    "compare_hui_heubel_inf": ["compare", "{dir}/bars_hui_heubel_inf.csv",
                               "--shares-outstanding", "1e6"],
    "compare_amihud_inf": ["compare", "{dir}/bars_amihud_inf.csv",
                           "--shares-outstanding", "1e6"],
    "calibrate_rw": ["calibrate-alpha", *SMALL_RUN],
    "calibrate_gauss": ["calibrate-alpha", "--model", "gauss", *SMALL_RUN],
    "calibrate_t": ["calibrate-alpha", "--model", "t:5", "--grid", "0.25,0.5,1", *SMALL_RUN],
    "calibrate_one_fraction": ["calibrate-alpha", "--grid", "0.5", *SMALL_RUN],
    # 10^309 steps: more than a float can hold.
    "calibrate_huge_steps": ["calibrate-alpha", "--paths", "4", "--steps", "1" + "0" * 309],
    "study": ["study", "--instruments", "3", "--days", "2", "--snapshots", "5",
              "--seed", str(SEED)],
    "latin1_bars": ["lix", "{dir}/latin1.csv"],
    "bad_header_bars": ["compare", "{dir}/bad_header.csv", "--shares-outstanding", "1"],
    "missing_file": ["lix", "{dir}/absent.csv"],
}
SMALL = {"bars": "{dir}/small_bars.csv", "book": "{dir}/small_book.csv",
         "positions": "{dir}/small_positions.csv", "day": "2020-01-08", "flat_day": "2020-01-06"}
SEEDED = {"bars": "{dir}/bars.csv", "book": "{dir}/book.csv",
          "positions": "{dir}/positions.csv", "day": DAYS[3], "flat_day": DAYS[7]}
# The commands each kind of faulty file goes through, by case name prefix.
READERS = {"bars": {"": "lix", "adv_": "lixi"}, "book": {"": "lixi"},
           "positions": {"": "basket_etf"}}


def _on(files: dict, argv: list[str]) -> list[str]:
    return [a.format(dir="{dir}", **files) for a in argv]


def _table() -> list:
    cases = [(f"{name}-{fmt}-{p}", [*_on(SMALL, argv), "--format", fmt, "--precision", p],
              None) for name, argv in COMMANDS.items() for fmt in FORMATS
             for p in ("0", "6", "17")]
    commands = [(name, _on(SEEDED, argv))
                for name, argv in [*COMMANDS.items(), *SEEDED_COMMANDS.items()]]
    for kind, faults in FAULTS.items():
        for name in (f"{kind}_{fault}" for fault in [*faults, *SHARED_FAULTS]):
            commands += [(prefix + name, _on(SEEDED | {kind: f"{{dir}}/{name}.csv"},
                                             COMMANDS[command]))
                         for prefix, command in READERS[kind].items()]
    precisions = itertools.cycle(("0", "3", "6", "9", "17"))
    cases += [(f"{name}-{fmt}-{'env' + p if p else 'unset'}", [*argv, "--format", fmt], p)
              for name, argv in commands for fmt in FORMATS
              for p in (None, next(precisions))]
    lix = _on(SEEDED, COMMANDS["lix"])
    return cases + [
        ("precision_env_text-text-envabc", lix, "abc"),
        ("precision_env_huge-text-env5000", lix, "5000"),
        ("usage_no_command-text-unset", [], None),
        ("usage_bogus-text-unset", ["bogus"], None),
        ("usage_missing_file_arg-text-unset", ["lix"], None),
        ("usage_bad_number-text-unset", ["cost", "--shares", "x", *COST[2:]], None),
        ("usage_precision-text-unset", [*lix, "--precision", "-1"], None),
        # 524 days of 250 steps fill the study's ~1 MiB walk block: 600 take two.
        ("study_two_blocks-json-unset", ["study", "--instruments", "3", "--days", "600",
                                         "--snapshots", "5", "--seed", str(SEED),
                                         "--format", "json"], None),
        # Bench-size baskets: appended here, as a seeded command would rename
        # every later case (each takes the next precision of the cycle).
        ("basket_bench_etf-csv-unset", ["basket", "{dir}/positions_bench.csv", "--etf-lix",
                                        "8.5", "--format", "csv"], None),
        ("basket_bench_strict-json-env17", ["basket", "{dir}/positions_bench_unit.csv",
                                            "--strict", "--format", "json"], "17")]


CASES = _table()
# Successful calibrate-alpha and study runs: np.log10's last digits vary by CPU.
UNPINNED = [name for name, _, _ in CASES if name.partition("-")[0] in
            ("calibrate_rw", "calibrate_gauss", "calibrate_t", "study", "study_two_blocks")]


def run(case: tuple, directory) -> list:
    """[exit code, stdout, stderr] of `case`, its input directory written as `<dir>`."""
    from lix.cli import main  # the lix first on sys.path, imported only to run
    _, argv, precision = case
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ):
        os.environ.pop("LIX_PRECISION", None)
        if precision is not None:
            os.environ["LIX_PRECISION"] = precision
        code = main([a.replace("{dir}", str(directory)) for a in argv], out=out, err=err)
    return [code, *(s.getvalue().replace(str(directory), "<dir>") for s in (out, err))]
