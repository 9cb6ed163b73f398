"""Golden CLI outputs: stdout, stderr and exit code of the table-writing
subcommands, pinned byte for byte in `golden_cli.json`.

Each case runs one subcommand on the small files below in one format at one
precision. The input directory is written as `<dir>` in the pinned text.
To pin the current outputs again after a deliberate change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import sys
from pathlib import Path

import pytest

from lix.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

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

HEADER_ONLY = {"book_header.csv": "timestamp,side,level,price,volume\n",
               "positions_header.csv": "instrument,beta,lix\n",
               "empty.csv": ""}

COST = ["--shares", "50000", "--price", "25.5", "--lix", "7.25", "--slice-t", "600",
        "--session", "23400"]

COMMANDS = {
    "lix": ["lix", "{dir}/bars.csv"],
    "lix_date": ["lix", "{dir}/bars.csv", "--date", "2020-01-08"],
    "lix_zero_range_date": ["lix", "{dir}/bars.csv", "--date", "2020-01-06"],
    "lixi": ["lixi", "{dir}/book.csv", "--adv-from", "{dir}/bars.csv"],
    "lixi_decompose": ["lixi", "{dir}/book.csv", "--adv-from", "{dir}/bars.csv",
                       "--decompose"],
    "compare": ["compare", "{dir}/bars.csv", "--shares-outstanding", "25000000"],
    "basket_etf": ["basket", "{dir}/positions.csv", "--etf-lix", "6.5"],
    "basket": ["basket", "{dir}/positions.csv"],
    "basket_extreme": ["basket", "{dir}/extreme.csv", "--etf-lix", "-0.0"],
    "basket_etf_nan": ["basket", "{dir}/positions.csv", "--etf-lix", "nan"],
    "cost": ["cost", *COST],
    "cost_alpha_one": ["cost", *COST, "--alpha", "1"],
    "cost_alpha_zero": ["cost", *COST, "--alpha", "0"],
    "lix_intraday": ["lix-intraday", "--cum-volume", "350000", "--last-price", "50.25",
                     "--high", "51", "--low", "49.5", "--elapsed", "7200",
                     "--session", "23400"],
    # Successful calibrate-alpha runs are left out: their values go through
    # np.log10, whose last digits can differ from one CPU to another.
    "calibrate_alpha_vol_nan": ["calibrate-alpha", "--vol", "nan", "--paths", "4",
                                "--steps", "20"],
    "lix_bad_date": ["lix", "{dir}/bars.csv", "--date", "2020-13-01"],
    "lix_empty_file": ["lix", "{dir}/empty.csv"],
    "lixi_no_snapshots": ["lixi", "{dir}/book_header.csv", "--adv-from", "{dir}/bars.csv"],
    "basket_no_positions": ["basket", "{dir}/positions_header.csv"],
    "calibrate_alpha_bad_dof": ["calibrate-alpha", "--model", "t:x", "--paths", "4",
                                "--steps", "20"],
    "calibrate_alpha_bad_grid": ["calibrate-alpha", "--grid", "0.1,x", "--paths", "4",
                                 "--steps", "20"],
    "study_no_snapshots": ["study", "--snapshots", "0", "--instruments", "2", "--days", "1"],
}
FORMATS = ("text", "csv", "json")
PRECISIONS = ("0", "6", "17")
CASES = [f"{name}-{fmt}-{p}" for name in COMMANDS for fmt in FORMATS for p in PRECISIONS]


def _write_inputs(directory: Path) -> None:
    for name, text in (("bars.csv", BARS), ("book.csv", BOOK),
                       ("positions.csv", POSITIONS),
                       ("extreme.csv", EXTREME_POSITIONS), *HEADER_ONLY.items()):
        (directory / name).write_text(text, encoding="utf-8")


def _run(case: str, directory: Path) -> list:
    name, fmt, precision = case.split("-")
    argv = [a.format(dir=directory) for a in COMMANDS[name]]
    out, err = io.StringIO(), io.StringIO()
    code = main(argv + ["--format", fmt, "--precision", precision], out=out, err=err)
    return [code, *(s.getvalue().replace(str(directory), "<dir>") for s in (out, err))]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _write_inputs(directory)
    return directory


def test_every_case_is_pinned(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_output_matches_golden(golden, inputs, case):
    assert _run(case, inputs) == golden[case]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        pinned = {case: _run(case, Path(tmp)) for case in CASES}
    GOLDEN.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"pinned {len(pinned)} cases in {GOLDEN}\n")
