"""A guard against stale imports: no package module imports a name it never uses.

The package declares no linter, so this plays the part of flake8's F401 on
``src/frakspace``. ``__init__.py`` is left out, since it exists to re-export.
An import statement whose first line carries ``# noqa: F401`` is allowed: a
name kept importable for code that reaches it by module attribute.
"""
import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "frakspace"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_unused_and_marked_imports():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "from os import path, sep\n"
        "from sys import (  # noqa: F401\n"
        "    argv,\n"
        ")\n"
        "print(math.pi, sep)\n"
    )
    assert unused_imports(source) == ["path"]


def test_package_reexports_each_module_all():
    # Each public name is declared once, in its module's __all__.
    import frakspace

    names = ["__version__"]
    for path in MODULES:
        if path.name != "cli.py":
            names += importlib.import_module(f"frakspace.{path.stem}").__all__
    assert sorted(frakspace.__all__) == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        getattr(frakspace, name)


def test_import_loads_only_the_package_and_the_standard_library():
    # Set-up time is this import: every further module it pulls in (scipy,
    # numpy.ma, ...) is paid by every command.
    code = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import frakspace, frakspace.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    loaded = run.stdout.split()
    assert "frakspace.cli" in loaded
    stray = [
        name for name in loaded
        if name.split(".")[0] not in sys.stdlib_module_names | {"frakspace"}
    ]
    assert stray == []
