"""The package and its tools import numpy and the standard library only."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "lix"}
MODULES = sorted([*(ROOT / "src" / "lix").glob("*.py"), *(ROOT / "tools").glob("*.py")])


def _imported(tree):
    # The top-level package of every absolute import, wherever it stands.
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_imports_numpy_and_the_standard_library_only(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(set(_imported(tree)) - ALLOWED) == []


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"data_io.py", "cli.py", "ab.py"}
