"""Golden CLI outputs: exit code, stdout and stderr of every case of the
table in `tools/cli_cases.py`, pinned byte for byte in `golden_cli.json`.
The calibrate-alpha and study runs are pinned too: simlab prices its walks
with libm's exp, whose values do not vary with the CPU. This file is the
one check of the CLI's output. To pin the current outputs again after a
deliberate change of output:

    PYTHONPATH=src python tests/test_golden.py

It prints how many cases changed and names each case whose pin changed,
was added or was dropped.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import cli_cases  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_cli.json")
CASES = {case[0]: case for case in cli_cases.CASES}


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
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_output_matches_golden(golden, inputs, case):
    assert cli_cases.run(CASES[case], inputs) == golden[case]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        cli_cases.write_inputs(Path(tmp))
        pinned = {name: cli_cases.run(case, Path(tmp)) for name, case in CASES.items()}
    old = json.loads(GOLDEN.read_text(encoding="utf-8"))
    changed = sorted(name for name in old.keys() | pinned.keys()
                     if old.get(name) != pinned.get(name))
    GOLDEN.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"pinned {len(pinned)} cases in {GOLDEN}, {len(changed)} changed\n")
    sys.stdout.writelines(f"  {name}\n" for name in changed)
