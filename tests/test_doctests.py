import doctest
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pillowcase import cli, lattice, orbi, qseries

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_module_doctests():
    for mod in (lattice, orbi, qseries):
        result = doctest.testmod(mod)
        assert result.attempted > 0
        assert result.failed == 0


def test_readme_quickstart():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def _readme_transcript():
    # The fenced block under "## Command line": each "$ pillowcase ..." line
    # and the stdout printed after it, up to the next command.
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```\n", 2)[1]
    for chunk in block.split("$ pillowcase ")[1:]:
        command, _, output = chunk.partition("\n")
        yield shlex.split(command), output.strip("\n") + "\n"


def test_readme_cli_transcript(capsys, monkeypatch):
    monkeypatch.delenv("CLI_COLOR", raising=False)
    transcript = list(_readme_transcript())
    assert len(transcript) == 5
    for argv, expected in transcript:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out == expected, argv


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
