"""Import footprint: each subcommand loads only the modules it runs.

Every case runs in a fresh interpreter, since this test process has long
imported the whole package.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
# What every subcommand loads: the CLI and the two modules it imports at the top.
BASE = {"cli", "lattice", "qseries"}
# Standard-library modules no subcommand may load: dataclasses alone pulls in
# inspect, ast, dis and tokenize, a cost every run would pay at start-up.
HEAVY = ("dataclasses", "inspect")


def _run(code: str, *flags: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(argv: list[str], *flags: str, watch=HEAVY) -> set[str]:
    # The names of the pillowcase submodules, and of any module in `watch`,
    # loaded once cli.main(argv) returns.
    out = _run(
        "import contextlib, io, sys\n"
        "from pillowcase import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "assert code == 0, code\n"
        f"print(' '.join(m for m in sys.modules if m.startswith('pillowcase.') or m in {watch!r}))\n",
        *flags,
    )
    return {name.removeprefix("pillowcase.") for name in out.split()}


CASES = pytest.mark.parametrize(
    "argv, modules",
    [
        (["series", "--which", "f2", "--max-degree", "8", "--format", "json"], BASE),
        (["sublattices", "--degree", "6", "--format", "csv"], BASE),
        (["correlators", "--insertions", "1,2,3,4", "--max-degree", "4"], {*BASE, "orbi"}),
        (["potential", "--max-degree", "4", "--compare-st"], {*BASE, "orbi", "potential"}),
        # The oracle checks orbi and lattice and never reads a potential.
        (["verify", "--max-degree", "3"], {*BASE, "orbi", "oracle"}),
    ],
    ids=["series", "sublattices", "correlators", "potential", "verify"],
)


@CASES
def test_a_subcommand_loads_only_the_modules_it_runs(argv, modules):
    assert _loaded_after(argv) == modules


@CASES
def test_a_subcommand_loads_no_typing_without_site(argv, modules):
    # Under -S nothing but the interpreter's own start-up runs before the
    # CLI, so `typing` in sys.modules would be the package's import.
    assert _loaded_after(argv, "-S", watch=("typing",)) == modules


def test_importing_the_package_loads_no_submodule():
    out = _run("import sys, pillowcase\nprint([m for m in sys.modules if m.startswith('pillowcase.')])")
    assert out == "[]\n"


def test_every_public_name_is_its_home_module_attribute():
    out = _run(
        "import importlib, pillowcase\n"
        "for name, home in pillowcase._HOMES.items():\n"
        "    module = importlib.import_module('pillowcase.' + home)\n"
        "    assert getattr(pillowcase, name) is getattr(module, name), name\n"
        "    assert name in vars(module), name\n"
        "exec('from pillowcase import *')\n"
        "print(len(pillowcase.__all__))\n"
    )
    assert out == "26\n"


def test_an_unknown_attribute_is_an_attribute_error():
    out = _run(
        "import pillowcase\n"
        "try:\n"
        "    pillowcase.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert out == "module 'pillowcase' has no attribute 'no_such_name'\n"
