"""No module of the package reads an environment variable.

A run is fully determined by its config and seed, and the machine's own
limits (its memory, the CPUs a process may run on) are read from the
machine.  A read of os.environ, os.environb, os.getenv or os.getenvb, or
an import of one of them from os, would be a setting that no manifest
records.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).parent.parent / "src" / "fbo_lab").glob("*.py"))

READS = ("environ", "environb", "getenv", "getenvb")


def environment_reads(source: str) -> list[str]:
    """Each read of the environment in source, as os.<name> (line n), in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in READS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, a.name) for a in node.names if a.name in READS]
    return [f"os.{name} (line {line})" for line, name in sorted(found)]


def test_finds_the_reads():
    source = (
        "import os\nfrom os import getenv, path\nx = os.environ.get('A', '1')\n"
        "y = os.getenvb(b'B')\nz = os.path.join('a', 'b')\n"
    )
    assert environment_reads(source) == ["os.getenv (line 2)", "os.environ (line 3)",
                                         "os.getenvb (line 4)"]


@pytest.mark.parametrize("path", PACKAGE, ids=[path.name for path in PACKAGE])
def test_no_module_reads_the_environment(path):
    assert environment_reads(path.read_text()) == []
