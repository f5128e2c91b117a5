"""Static guards on the package layout.

No engine step is randomized, so no module under ``src/opalg`` imports
``random``; the randomized helpers the tests use live in ``reference``.
Every name a layer exports resolves, so ``from opalg.<layer> import *``
never trips over an entry left behind by a deletion.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "opalg"
MODULES = sorted(SRC.rglob("*.py"))
LAYERS = ["opalg", "opalg.terms", "opalg.poly", "opalg.orders", "opalg.opi", "opalg.rewrite", "opalg.gsbasis"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_random(path):
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "random" not in imported


@pytest.mark.parametrize("name", LAYERS)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
