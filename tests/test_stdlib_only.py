"""The package has no runtime dependencies and no hidden inputs.

Every import is stdlib or relative, and no module reads the process
environment, so output depends on the arguments alone.  Only the CLI's
process entry point touches the garbage collector.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pillowcase"
ENVIRONMENT_READERS = {"environ", "environb", "getenv"}


def _tree(path: Path):
    return ast.parse(path.read_text(), filename=str(path))


def _absolute_imports(path: Path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    imports = _absolute_imports(path)
    assert [name for name in imports if name.split(".")[0] not in sys.stdlib_module_names] == []


def _environment_reads(path: Path):
    # `os.environ`, `os.getenv(...)` and `from os import environ` alike.
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        if ENVIRONMENT_READERS.intersection(names):
            yield f"{path.name}:{node.lineno}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_no_environment_variable(path):
    assert list(_environment_reads(path)) == []


def test_only_the_cli_imports_gc():
    # The library modules never change the collector's state; `cli.run`
    # freezes it once a process's output is flushed.
    importers = {
        path.name
        for path in PACKAGE.glob("*.py")
        if any(name.split(".")[0] == "gc" for name in _absolute_imports(path))
    }
    assert importers == {"cli.py"}
