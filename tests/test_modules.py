"""The package's module surface, and the independence of the test oracles."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import barrierwalk

MODULES = ["barrierwalk"] + sorted(
    f"barrierwalk.{info.name}" for info in pkgutil.iter_modules(barrierwalk.__path__)
)
ORACLES = Path(__file__).resolve().parent / "oracles.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # The benchmark's tracer calls getattr on each name in __all__, so one
    # stale entry would crash every traced run.
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{name}.{attr}"


def test_oracles_import_nothing_from_the_package():
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported, "the AST walk found no imports at all"
    assert not {name for name in imported if name.split(".")[0] in ("barrierwalk", "")}
