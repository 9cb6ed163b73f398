"""Golden CLI outputs: exit code, stdout and stderr of each case of the table
in `tools/cli_cases.py`, pinned byte for byte in `golden_cli.json`. Its
UNPINNED cases, whose values go through np.log10, are checked for exit 0, an
empty stderr, their fields and finite values instead. To pin the current
outputs again after a deliberate change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import cli_cases  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_cli.json")
CASES = {case[0]: case for case in cli_cases.CASES}
PINNED = [name for name in CASES if name not in cli_cases.UNPINNED]
FIELDS = {"calibrate-alpha": ["alpha_hat", "stderr", "n_paths", "time_grid"],
          "study": ["slope", "intercept", "r_squared", "n_points", "n_dropped"]}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    cli_cases.write_inputs(directory)
    return directory


def test_case_names_are_unique():
    assert len(CASES) == len(cli_cases.CASES)


def test_every_case_is_pinned(golden):
    assert sorted(golden) == sorted(PINNED)


@pytest.mark.parametrize("case", PINNED)
def test_output_matches_golden(golden, inputs, case):
    assert cli_cases.run(CASES[case], inputs) == golden[case]


@pytest.mark.parametrize("case", cli_cases.UNPINNED)
def test_unpinned_output_has_its_fields_and_finite_values(inputs, case):
    argv = CASES[case][1]
    fields, fmt = FIELDS[argv[0]], argv[argv.index("--format") + 1]
    code, out, err = cli_cases.run(CASES[case], inputs)
    assert (code, err) == (0, "")
    assert not re.search("(?i)nan|inf", out)  # every value is finite
    if fmt == "json":
        assert list(json.loads(out)) == fields
    else:
        *header, row = out.splitlines()
        assert header == ([",".join(fields)] if fmt == "csv" else [])
        assert len(row.split("," if fmt == "csv" else "  ")) == len(fields)


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        cli_cases.write_inputs(Path(tmp))
        pinned = {name: cli_cases.run(CASES[name], Path(tmp)) for name in PINNED}
    GOLDEN.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"pinned {len(pinned)} cases in {GOLDEN}\n")
