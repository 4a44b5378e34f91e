"""Each module of the package uses every name it imports.

A stand-in for a linter's unused-import rule: a name that a module imports
and never reads is left over from deleted code.  __init__.py is skipped, as
it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path for path in (Path(__file__).parent.parent / "src" / "fbo_lab").glob("*.py")
    if path.name != "__init__.py"
)


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
