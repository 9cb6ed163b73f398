"""tools/parity.py: the CLI output of two checkouts compared case by case."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PARITY = ROOT / "tools" / "parity.py"
sys.path.insert(0, str(ROOT / "tools"))
import cli_cases  # noqa: E402


def _parity(*args):
    return subprocess.run([sys.executable, str(PARITY), *map(str, args)],
                          capture_output=True, text=True, check=False)


def test_a_checkout_matches_itself():
    proc = _parity(ROOT, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    count = int(re.fullmatch(r"parity: (\d+) cases, 0 differ\n", proc.stdout).group(1))
    assert count == len(cli_cases.CASES)


def test_a_changed_message_is_named(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    data_io = tmp_path / "src" / "lix" / "data_io.py"
    text = data_io.read_text(encoding="utf-8")
    assert "bad ISO-8601 date" in text
    data_io.write_text(text.replace("bad ISO-8601 date", "bad date"), encoding="utf-8")
    proc = _parity(ROOT, tmp_path)
    assert proc.returncode == 1
    assert "--- bars_date-text-unset\n" in proc.stdout
    assert "  stderr: \"error: bad date: '03/01/2000'" in proc.stdout
    assert re.search(r"parity: \d+ cases, [1-9]\d* differ\n\Z", proc.stdout)


@pytest.mark.parametrize("args", [[], ["{root}"], ["{root}", "{empty}"]],
                         ids=["no-checkout", "one-checkout", "no-src"])
def test_usage_errors_exit_2(tmp_path, args):
    proc = _parity(*(a.format(root=ROOT, empty=tmp_path) for a in args))
    assert (proc.returncode, proc.stdout) == (2, "")
