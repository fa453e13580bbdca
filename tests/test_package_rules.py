"""Rules that the package source keeps, checked on its syntax tree."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def test_package_imports_only_itself_and_the_standard_library():
    # the package has no runtime dependency; networkx serves the tests only
    outside = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.relative_to(PACKAGE)}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_package_reads_the_environment_only_for_the_worker_count():
    # IOCODES_WORKERS is the package's one environment switch; a second
    # would be an option that no parameter or flag shows
    readers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    scopes.setdefault(inner, node.name)  # the outermost function
        for node in ast.walk(tree):
            reads = (
                isinstance(node, ast.Attribute) and ast.unparse(node) in ("os.environ", "os.getenv")
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and any(alias.name in ("environ", "getenv") for alias in node.names)
            )
            if reads:
                readers.append(f"{path.relative_to(PACKAGE)} {scopes.get(node, '<module>')}")
    assert readers == ["audit.py _worker_count"]


def test_cli_import_leaves_networkx_unloaded():
    # the package imports no networkx, which serves the tests only; a CLI
    # start that loaded it would pay its import time
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, iocodes.cli; print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
