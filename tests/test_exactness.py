"""The arithmetic modules compute exactly: no float can enter them.

An `ast` scan of `lattice`, `orbi`, `qseries`, `potential` and `oracle`
refuses float and complex literals, calls to `float`, `round` and
`complex`, every `math` name but the integer-valued functions, and true
division `/` except at a reviewed file:line in `TRUE_DIVISION_ALLOWED`.
`cli` is left out, so that it may read a clock.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pillowcase"
ARITHMETIC_MODULES = ("lattice", "orbi", "qseries", "potential", "oracle")
INEXACT_CALLS = {"float", "round", "complex"}
# The math functions whose value is an int; every other math name is a
# float-valued function or a float constant.
INTEGER_MATH = {"ceil", "comb", "factorial", "floor", "gcd", "isqrt", "lcm", "perm", "prod", "trunc"}
# "file.py:line" -> why that true division is exact.
TRUE_DIVISION_ALLOWED: dict[str, str] = {}


def _inexact_uses(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    math_names = set()  # what `import math` binds
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            math_names |= {alias.asname or alias.name for alias in node.names if alias.name == "math"}
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield where, f"literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in INEXACT_CALLS:
            yield where, f"call to {node.func.id}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in INTEGER_MATH:
                    yield where, f"math.{alias.name}"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in math_names:
            if node.attr not in INTEGER_MATH:
                yield where, f"math.{node.attr}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            if where not in TRUE_DIVISION_ALLOWED:
                yield where, "true division"


@pytest.mark.parametrize("module", ARITHMETIC_MODULES)
def test_module_uses_no_inexact_arithmetic(module):
    assert list(_inexact_uses(PACKAGE / f"{module}.py")) == []


def test_each_allowed_division_is_still_one():
    # A stale entry would let a later division on that line through unreviewed.
    divisions = set()
    for module in ARITHMETIC_MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                divisions.add(f"{module}.py:{node.lineno}")
    assert set(TRUE_DIVISION_ALLOWED) <= divisions


def test_scan_refuses_each_kind_of_inexact_use(tmp_path):
    source = tmp_path / "planted.py"
    source.write_text(
        "import math\n"
        "from math import gcd, sqrt\n"
        "x = 0.5\n"
        "y = 3 / 2\n"
        "y /= 2\n"
        "z = round(x) + float(1) + complex(1)\n"
        "w = math.pi + math.isqrt(4) + gcd(2, 4) + 1j\n"
    )
    found = [(int(where.rpartition(":")[2]), what) for where, what in _inexact_uses(source)]
    assert sorted(found) == [
        (2, "math.sqrt"),
        (3, "literal 0.5"),
        (4, "true division"),
        (5, "true division"),
        (6, "call to complex"),
        (6, "call to float"),
        (6, "call to round"),
        (7, "literal 1j"),
        (7, "math.pi"),
    ]
