import doctest
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pillowcase import cli, lattice, oracle, orbi, qseries

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


def test_readme_cli_transcript(capsys):
    transcript = list(_readme_transcript())
    assert len(transcript) == 5
    for argv, expected in transcript:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out == expected, argv


def _readme_sentence(start: str) -> str:
    # The README text from `start` up to the next full stop that ends a sentence.
    text = " ".join(README.read_text().split())
    return text[text.index(start) :].split(". ", 1)[0]


def test_readme_lists_match_the_cli():
    which = _readme_sentence("`series --which` accepts")
    assert re.findall(r"`(\w+)`", which) == list(cli.SERIES_BUILDERS)
    suites = _readme_sentence("`verify --suite` selects one of").split(";")[0]
    assert re.findall(r"`(\w+)`", suites) == [*cli.VERIFY_SUITES, "all"]


def test_readme_suite_limits_match_the_oracle():
    # "(`oracle` at 12, ..., `lumpsum` and `closedform` at 1000; ...)"
    clause = _readme_sentence("every suite clamps its degree").split("(", 1)[1].split(";")[0]
    stated = {
        suite: int(limit)
        for names, limit in re.findall(r"((?:`\w+`(?: and )?)+) at (\d+)", clause)
        for suite in re.findall(r"`(\w+)`", names)
    }
    assert stated == {suite: getattr(oracle, limit) for suite, (limit, _) in cli.VERIFY_SUITES.items()}
    limits = (oracle.SL2_EXHAUSTIVE_MAX, oracle.RH_EXHAUSTIVE_MAX, oracle.PARITY_EXHAUSTIVE_MAX)
    assert set(stated.values()) == {*limits, oracle.DIVISOR_SUM_MAX}


def test_readme_oracle_counts_match_the_walk(monkeypatch):
    # "Up to d = 12 the walk reduces 12,876 matrices and makes 127 `hnf_reduce` calls"
    sentence = _readme_sentence("Up to d = ")
    dmax, matrices, calls = re.fullmatch(
        r"Up to d = (\d+) the walk reduces ([\d,]+) matrices and makes (\d+) `hnf_reduce` calls", sentence
    ).groups()
    counts = {"_reduce_columns": 0, "hnf_reduce": 0}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    count(oracle, "_reduce_columns")
    count(lattice, "hnf_reduce")
    assert oracle.orbit_agreement_check(int(dmax)).ok
    assert counts == {"_reduce_columns": int(matrices.replace(",", "")), "hnf_reduce": int(calls)}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
