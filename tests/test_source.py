"""Checks on the library's source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "thompsonf"


def test_library_checks_survive_optimized_mode():
    # python -O strips assert statements, so no library check may be one
    sources = sorted(SRC.glob("*.py"))
    assert sources
    asserts = [f"{path.name}:{node.lineno}" for path in sources
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Assert)]
    assert asserts == []
