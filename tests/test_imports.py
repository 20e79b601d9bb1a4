"""Every module of the package uses every name it imports.

A name counts as used where the module's code reads it, annotations
included, or where the module re-exports it through ``__all__``. The
check parses the source and imports nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "urllc_mc"


def _imported(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used(tree: ast.Module) -> set:
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and
             not isinstance(n.ctx, ast.Store)}
    for node in tree.body:  # __all__ = [...] re-exports
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_the_module_uses_every_name_it_imports(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert sorted(_imported(tree) - _used(tree)) == []


def test_an_unused_import_is_reported():
    tree = ast.parse("from .outage import _leaves, _link_count\n"
                     "import os.path\n"
                     "__all__ = ['x']\n"
                     "def f(p: 'str') -> float:\n"
                     "    return _leaves(p)[3]\n")
    assert _imported(tree) - _used(tree) == {"_link_count", "os"}
