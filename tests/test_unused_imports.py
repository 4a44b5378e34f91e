"""Each module of the package uses every name it imports, and every private
name that a module defines is used somewhere in the package.

Stand-ins for a linter's unused-import and dead-code rules: a name that a
module imports and never reads, or a private helper that no module reads or
imports, is left over from deleted code.  __init__.py is skipped by the
import check, as it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).parent.parent / "src" / "fbo_lab").glob("*.py"))
SOURCES = [path for path in PACKAGE if path.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names bound by the import statements of source that it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_finds_an_unused_name():
    source = (
        "from __future__ import annotations\nimport os, sys\n"
        "from math import pi as p, e\nprint(sys, e)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "p (line 3)"]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private top-level names (a leading underscore, not a dunder) that
    the modules of sources, by module name, define and none of them reads,
    as a name, an attribute or an imported name."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [f"{module}.{name}" for module, name in defined if name not in used]


def test_finds_an_unread_private_name():
    sources = {
        "a": "_LIMIT = 3\n_SEEN: set = set()\n__all__ = []\ndef _left(): pass\n"
             "def _helper(): return _LIMIT\nclass _Box: pass\n",
        "b": "from .a import _helper\nimport a\nprint(_helper(), a._Box)\n",
    }
    assert unread_private_names(sources) == ["a._SEEN", "a._left"]


def test_every_private_name_is_used():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unread_private_names(sources) == []
