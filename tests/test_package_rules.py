"""Rules that the package source keeps, checked on its syntax tree."""

from __future__ import annotations

import ast
from pathlib import Path

import iocodes

PACKAGE = Path(iocodes.__file__).resolve().parent


def test_package_holds_no_assert_statements():
    # ``python -O`` strips ``assert``, so a correctness check held in one
    # would silently stop running; checks raise typed errors instead
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
