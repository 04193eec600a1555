"""Rules the package source itself must keep."""

import ast
from pathlib import Path

import mgonal

SOURCES = sorted(Path(mgonal.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "represent.py", "reduction.py"}


def test_no_assert_statements():
    # `python -O` strips assert statements; correctness checks must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
