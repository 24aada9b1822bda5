"""No check in the package may be an `assert` statement: `python -O` strips them."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "logff"
SOURCES = sorted(PACKAGE.glob("*.py"))


def test_the_package_sources_are_found():
    assert PACKAGE / "ffcoeff.py" in SOURCES and PACKAGE / "cli.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements, stripped by python -O: {found}"
