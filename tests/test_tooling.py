"""Checks on the source tree itself."""

import ast
from pathlib import Path

import latsim

SRC = Path(latsim.__file__).resolve().parent


def test_source_holds_no_assert_statement():
    # python -O strips assert statements, so a range or invariant that
    # must hold raises an exception instead
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
