"""Static guards on the package layout.

No engine step is randomized, so no module under ``src/opalg`` imports
``random``; the randomized helpers the tests use live in ``reference``.
Every name a layer exports resolves, so ``from opalg.<layer> import *``
never trips over an entry left behind by a deletion, and every name a
module imports is used there, so a deletion leaves no import behind
(``__init__.py`` imports to re-export, so it is exempt).
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


def _unused_imports(tree):
    """Names an import binds that the module never reads nor lists in
    ``__all__``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_module_imports_a_name_it_does_not_use(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_unused_import_guard_catches_a_leftover():
    tree = ast.parse("import os\nfrom json import dumps, loads as ld\n__all__ = ['dumps']\nos.sep\n")
    assert _unused_imports(tree) == [(2, "ld")]


def _raises_naming(tree, text):
    """The line of each ``raise`` whose exception text contains ``text``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            parts = [n.value for n in ast.walk(node.exc) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
            if any(text in part for part in parts):
                lines.append(node.lineno)
    return lines


def test_the_descent_check_lives_in_one_place():
    # the stepwise step and the memo fill share one check, so a step that
    # does not descend fails with one message whichever path meets it
    found = [
        (path.name, line)
        for path in MODULES
        for line in _raises_naming(ast.parse(path.read_text(), str(path)), "non-descending step")
    ]
    assert len(found) == 1, found


def test_the_raise_scan_reads_formatted_messages():
    tree = ast.parse('raise RuntimeError(f"non-descending step: {a}")\nraise ValueError("other")\n')
    assert _raises_naming(tree, "non-descending step") == [1]
