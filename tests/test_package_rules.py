"""Rules that the package source keeps, checked on its syntax tree."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import iocodes

PACKAGE = Path(iocodes.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


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


def _names_read(path: Path) -> set[str]:
    """The names a module reads, plain or as attributes, outside the
    definition of a function or class of the same name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own.update((id(inner), node.name) for inner in ast.walk(node))
    read = set()
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name is not None and (id(node), name) not in own:
            read.add(name)
    return read


def test_every_public_name_has_a_user():
    # a name in the package's or a module's ``__all__`` is read in the
    # package outside its own definition, or by a demo, or named in code in
    # README, which names the tests as the users of the reference
    # implementations; any other public name is API that only tests call
    public = set(iocodes.__all__)
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            public.update(getattr(importlib.import_module(f"iocodes.{path.stem}"), "__all__", ()))
    read = set().union(*map(_names_read, [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py")]))
    readme = (ROOT / "README.md").read_text()
    code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", readme, re.S))
    unused = sorted(name for name in public - read if not re.search(rf"\b{name}\b", code))
    assert unused == []


def test_package_modules_import_only_names_they_use():
    # an import that nothing reads is left over from a deleted caller; the
    # package's ``__init__`` imports to re-export, so it is exempt
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                unused += [
                    f"{path.relative_to(PACKAGE)}:{node.lineno} {alias.asname or alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name.split(".")[0]) not in read
                ]
    assert unused == []
