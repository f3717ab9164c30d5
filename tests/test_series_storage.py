"""The storage of a QSeries stays behind `qseries`: no other module reads it.

Outside `qseries.py` a series is read through `coeffs`, `coefficient`,
`to_json` and `trunc`, never through its numerator or denominator fields,
so the representation can change in one module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from pillowcase.qseries import QSeries

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pillowcase"
STORAGE_FIELDS = {"_num", "_den"}


def _storage_reads(path: Path) -> list[str]:
    # Attribute reads (s._num) and attribute names given as strings (getattr).
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in STORAGE_FIELDS:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Constant) and node.value in STORAGE_FIELDS:
            found.append(f"line {node.lineno}: {node.value!r}")
    return found


def test_storage_fields_are_the_series_slots():
    # A series is its numerators and its denominator: no cache rides along.
    assert QSeries.__slots__ == ("_num", "_den")
    assert STORAGE_FIELDS <= set(QSeries.__slots__)
    assert _storage_reads(PACKAGE / "qseries.py")


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "qseries.py"),
    ids=lambda p: p.name,
)
def test_module_does_not_read_series_storage(path):
    assert _storage_reads(path) == []
