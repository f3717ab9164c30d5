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


def _count_calls(monkeypatch, *targets):
    # Wrap each (module, name) so that counts[name] tallies its calls.
    counts = {}
    for module, name in targets:
        counts[name] = 0

        def counted(*args, _real=getattr(module, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_readme_oracle_counts_match_the_walk(monkeypatch):
    # "Up to d = 12 the walk reduces 1,673 matrices and makes 127 `hnf_reduce` calls"
    sentence = _readme_sentence("Up to d = ")
    dmax, matrices, calls = re.fullmatch(
        r"Up to d = (\d+) the walk reduces ([\d,]+) matrices and makes (\d+) `hnf_reduce` calls", sentence
    ).groups()
    counts = _count_calls(monkeypatch, (oracle, "_reduce_columns"), (lattice, "hnf_reduce"))
    assert oracle.orbit_agreement_check(int(dmax)).ok
    assert counts == {"_reduce_columns": int(matrices.replace(",", "")), "hnf_reduce": int(calls)}


def test_readme_parity_counts_match_the_suite(monkeypatch):
    # "Up to d = 100 the `parity` suite makes 200 reductions and names 1,064 points for 8,299 sublattices"
    sentence = _readme_sentence("Up to d = 100 the `parity` suite")
    dmax, reductions, points, lattices = re.fullmatch(
        r"Up to d = (\d+) the `parity` suite makes ([\d,]+) reductions and names ([\d,]+) points"
        r" for ([\d,]+) sublattices",
        sentence,
    ).groups()
    counts = _count_calls(monkeypatch, (oracle, "_half_mod_one"), (oracle, "_corner_of"))
    result = oracle.image_table_check(int(dmax))
    assert result.ok and result.details["lattices"] == int(lattices.replace(",", ""))
    assert counts == {
        "_half_mod_one": int(reductions.replace(",", "")),
        "_corner_of": int(points.replace(",", "")),
    }


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
