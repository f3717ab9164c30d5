from __future__ import annotations

import inspect
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillowcase import cli, oracle, orbi, potential, qseries
from pillowcase.lattice import enumerate_sublattices
from pillowcase.orbi import correlator_series


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# sublattices
# ---------------------------------------------------------------------------


def test_sublattices_csv_exact_bytes(capsys):
    code, out, _ = _run(capsys, ["sublattices", "--degree", "2", "--format", "csv"])
    assert code == 0
    assert out == "1,0,2,2\n2,0,1,2\n2,1,1,2\ncount=3 sigma1=3\n"


def test_sublattices_json_matches_in_process(capsys):
    code, out, _ = _run(capsys, ["sublattices", "--degree", "6", "--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert blob["sublattices"] == [lat.to_json() for lat in enumerate_sublattices(6)]
    assert blob["count"] == blob["sigma1"] == 12


def test_sublattices_pretty_summary(capsys):
    code, out, _ = _run(capsys, ["sublattices", "--degree", "3"])
    assert code == 0
    assert out.splitlines()[-1] == "count=4 sigma1=4"


def test_sublattices_usage_errors(capsys):
    assert _run(capsys, ["sublattices", "--degree", "0"])[0] == 2
    assert _run(capsys, ["sublattices", "--degree", "x"])[0] == 2
    assert _run(capsys, ["sublattices", "--degree", "50", "--degree-cap", "10"])[0] == 2
    assert _run(capsys, ["sublattices", "--degree", "50"])[0] == 0


def test_output_is_deterministic(capsys):
    first = _run(capsys, ["sublattices", "--degree", "12", "--format", "json"])
    second = _run(capsys, ["sublattices", "--degree", "12", "--format", "json"])
    assert first == second


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def test_series_f_pretty(capsys):
    code, out, _ = _run(capsys, ["series", "--which", "f", "--max-degree", "6"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "q^0: -1/24"
    assert [line.split(": ")[1] for line in lines[2:]] == ["1", "3", "4", "7", "6", "12"]


def test_series_f0_values(capsys):
    code, out, _ = _run(capsys, ["series", "--which", "f0", "--max-degree", "2", "--format", "csv"])
    assert code == 0
    assert out == "0,0\n1,1\n2,0\n"


def test_series_json_matches_in_process(capsys):
    for which, builder in cli.SERIES_BUILDERS.items():
        code, out, _ = _run(capsys, ["series", "--which", which, "--max-degree", "9", "--format", "json"])
        assert code == 0
        assert json.loads(out) == qseries.to_json(builder(9))


def _closed_forms(n: int) -> dict[str, list]:
    # Every named series from a divisor sieve of the test's own, as the strings
    # str(Fraction) prints; the constant -1/24 of f and f1 is the one non-integer.
    sigma = [0] * (n + 1)
    for k in range(1, n + 1):
        for multiple in range(k, n + 1, k):
            sigma[multiple] += k
    odd = [sigma[d] if d % 2 else 0 for d in range(n + 1)]
    even = [0 if d % 2 else sigma[d] for d in range(n + 1)]
    quarter = [0 if d % 4 else sigma[d // 4] for d in range(n + 1)]
    forms = {
        "f": ["-1/24"] + sigma[1:],
        "f0": odd,
        "f1": ["-1/24"] + quarter[1:],
        "f2": [e - q for e, q in zip(even, quarter)],
        "Dodd": odd,
        "Deven": even,
        "D4": quarter,
    }
    return {which: [str(c) for c in coeffs] for which, coeffs in forms.items()}


def test_every_series_builder_matches_its_closed_form_at_2000(capsys):
    n = 2000
    forms = _closed_forms(n)
    assert set(forms) == set(cli.SERIES_BUILDERS)
    for which, coeffs in forms.items():
        argv = ["series", "--which", which, "--max-degree", str(n), "--format", "json"]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert json.loads(out) == {"coeffs": coeffs, "trunc": n}, which


def _column(out: str, sep: str) -> list[str]:
    return [line.rsplit(sep, 1)[1] for line in out.splitlines()]


@pytest.mark.parametrize("which", tuple(cli.SERIES_BUILDERS))
def test_series_rows_print_what_str_fraction_prints(capsys, which):
    # Past the golden N = 40: the printed strings are str() of the Fractions.
    expected = [str(c) for c in cli.SERIES_BUILDERS[which](97).coeffs]
    argv = ["series", "--which", which, "--max-degree", "97", "--format"]
    assert _column(_run(capsys, argv + ["csv"])[1], ",") == expected
    assert _column(_run(capsys, argv + ["pretty"])[1].split("\n", 1)[1], ": ") == expected


def test_series_usage_errors(capsys):
    assert _run(capsys, ["series", "--which", "D", "--max-degree", "4"])[0] == 2
    assert _run(capsys, ["series", "--which", "f", "--max-degree", "-1"])[0] == 2


# ---------------------------------------------------------------------------
# correlators
# ---------------------------------------------------------------------------


def test_correlators_pretty(capsys):
    code, out, _ = _run(capsys, ["correlators", "--insertions", "1,2,3,4", "--max-degree", "5"])
    assert code == 0
    assert [line.split(": ")[1] for line in out.splitlines()[1:]] == ["1", "0", "4", "0", "6"]


def test_correlators_json_round_trip(capsys):
    code, out, _ = _run(
        capsys, ["correlators", "--insertions", "2,2,3,3", "--max-degree", "8", "--format", "json"]
    )
    assert code == 0
    records = json.loads(out)
    series = correlator_series((2, 2, 3, 3), 8)
    assert [r["degree"] for r in records] == list(range(1, 9))
    assert all(r["insertions"] == [2, 2, 3, 3] for r in records)
    assert [r["count"] for r in records] == [int(c) for c in series.coeffs[1:]]


def test_correlators_rows_print_what_str_fraction_prints(capsys):
    argv = ["correlators", "--insertions", "1,2,3,4", "--max-degree", "97", "--format", "csv"]
    expected = [str(c) for c in correlator_series((1, 2, 3, 4), 97).coeffs[1:]]
    assert _column(_run(capsys, argv)[1], ",") == expected


def test_correlators_usage_errors(capsys):
    for bad in ("1,2,3", "1,2,3,4,4", "1,2,3,a", "0,2,3,4", "1,2,3,5"):
        code, _, err = _run(capsys, ["correlators", "--insertions", bad])
        assert code == 2, bad
        assert "insertion" in err or "points" in err
    assert _run(capsys, ["correlators", "--insertions", "1,2,3,4", "--max-degree", "0"])[0] == 2


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------


def test_potential_json_matches_in_process(capsys):
    code, out, _ = _run(capsys, ["potential", "--max-degree", "6", "--format", "json"])
    assert code == 0
    assert json.loads(out) == potential.potential_to_json(potential.assemble_potential(6))


def test_potential_compare_match(capsys):
    code, out, _ = _run(capsys, ["potential", "--max-degree", "20", "--compare-st"])
    assert code == 0
    assert out == "MATCH\n"


def test_potential_compare_match_json(capsys):
    code, out, _ = _run(capsys, ["potential", "--max-degree", "20", "--compare-st", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"diffs": [], "match": True}


def test_potential_pretty_header(capsys):
    code, out, _ = _run(capsys, ["potential", "--max-degree", "4"])
    assert code == 0
    assert out.startswith("F = (1/2)*t0^2*log q")


def test_potential_csv_deterministic(capsys):
    first = _run(capsys, ["potential", "--max-degree", "5", "--format", "csv"])
    second = _run(capsys, ["potential", "--max-degree", "5", "--format", "csv"])
    assert first == second
    assert first[1].splitlines()[0] == "log_term,1/2"


def test_potential_csv_prints_what_str_fraction_prints(capsys):
    assembled = potential.assemble_potential(97)
    expected = [f"log_term,{assembled.log_term}"] + [
        f"{','.join(map(str, mono.exponents))},{deg},{c}"
        for mono, series in assembled.terms.items()
        for deg, c in enumerate(series.coeffs)
    ]
    argv = ["potential", "--max-degree", "97", "--format", "csv"]
    assert _run(capsys, argv)[1].splitlines() == expected


def test_potential_usage_errors(capsys):
    assert _run(capsys, ["potential", "--max-degree", "0"])[0] == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_each_suite_passes(capsys):
    for suite in ("oracle", "parity", "rh", "lumpsum", "closedform"):
        code, out, _ = _run(capsys, ["verify", "--suite", suite, "--max-degree", "8"])
        assert code == 0, suite
        assert out.startswith("PASS")


def test_verify_all_lists_every_suite(capsys):
    code, out, _ = _run(capsys, ["verify", "--suite", "all", "--max-degree", "6"])
    assert code == 0
    assert len(out.splitlines()) == 5


def test_verify_json_keeps_every_suite_record(capsys):
    code, out, _ = _run(capsys, ["verify", "--suite", "all", "--max-degree", "6", "--format", "json"])
    assert code == 0
    records = json.loads(out)
    assert [r["suite"] for r in records] == ["oracle", "parity", "rh", "lumpsum", "closedform"]
    assert all(set(r) == {"suite", "label", "ok", "details", "counterexample"} for r in records)
    assert all(r["ok"] and r["counterexample"] is None for r in records)
    assert records[1] == {
        "suite": "parity",
        "label": "parity (d <= 6)",
        "ok": True,
        "details": {"lattices": 33},
        "counterexample": None,
    }
    assert records[4]["details"] == {"classes_checked": 35 * 6}


def test_verify_json_reports_counterexample(capsys, monkeypatch):
    kept = tuple(t for t in orbi.MARKING_PERMUTATIONS if t != (2, 4, 3))
    monkeypatch.setattr(orbi, "MARKING_PERMUTATIONS", kept)
    code, out, _ = _run(
        capsys, ["verify", "--suite", "closedform", "--max-degree", "4", "--format", "json"]
    )
    assert code == 1
    (record,) = json.loads(out)
    assert record["suite"] == "closedform" and record["ok"] is False
    assert record["counterexample"]["d"] == 2


def test_verify_csv_one_line_per_suite(capsys):
    code, out, _ = _run(capsys, ["verify", "--suite", "all", "--max-degree", "6", "--format", "csv"])
    assert code == 0
    assert out == (
        "oracle (d <= 6),PASS\n"
        "parity (d <= 6),PASS\n"
        "rh (d <= 6),PASS\n"
        "lumpsum (d <= 6),PASS\n"
        "closedform (d <= 6),PASS\n"
    )


def test_verify_rh_reports_every_degree(capsys):
    code, out, _ = _run(capsys, ["verify", "--suite", "rh", "--max-degree", "2", "--format", "json"])
    assert code == 0
    (record,) = json.loads(out)
    assert record["details"] == {"degrees": 2, "solutions": 24 + 36}


@pytest.mark.parametrize(
    "suite, check, limit",
    [
        ("parity", "image_table_check", 400),
        ("lumpsum", "lumpsum_check", 1000),
        ("closedform", "correlator_crosscheck", 1000),
    ],
)
def test_verify_degree_is_clamped(capsys, monkeypatch, suite, check, limit):
    # The suite is replaced by a recorder, so the clamp is checked without
    # walking every sublattice up to the cap.
    seen = []

    def fake_check(dmax):
        seen.append(dmax)
        return oracle.CheckResult(True)

    monkeypatch.setattr(oracle, check, fake_check)
    code, out, _ = _run(
        capsys, ["verify", "--suite", suite, "--max-degree", "10000", "--format", "csv"]
    )
    assert code == 0
    assert out == f"{suite} (d <= {limit}),PASS\n"
    assert seen == [getattr(oracle, cli.VERIFY_SUITES[suite][0])] == [limit]


def test_every_suite_is_one_oracle_check_over_dmax(monkeypatch):
    # The benchmark names its oracle spans from the same table, so a suite
    # renamed or reordered here would time one suite under another's name.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    checks = {suite: check for suite, (_, check) in cli.VERIFY_SUITES.items()}
    assert list(checks.items()) == list(tracing.ORACLE_SUITES.items())
    for check in checks.values():
        assert list(inspect.signature(getattr(oracle, check)).parameters) == ["dmax"]


def test_verify_usage_errors(capsys):
    assert _run(capsys, ["verify", "--suite", "bogus"])[0] == 2
    assert _run(capsys, ["verify", "--suite", "all", "--max-degree", "0"])[0] == 2


# ---------------------------------------------------------------------------
# degree cap
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--which", "f"],
        ["correlators", "--insertions", "1,2,3,4"],
        ["potential"],
        ["verify", "--suite", "lumpsum"],
    ],
)
def test_every_degree_is_capped(capsys, argv):
    code, out, err = _run(capsys, argv + ["--max-degree", "100000"])
    assert code == 2
    assert out == ""
    assert err == "error: --max-degree 100000 exceeds the cap 10000; raise --degree-cap\n"
    code, _, err = _run(capsys, argv + ["--max-degree", "8", "--degree-cap", "5"])
    assert code == 2
    assert err == "error: --max-degree 8 exceeds the cap 5; raise --degree-cap\n"
    assert _run(capsys, argv + ["--max-degree", "5", "--degree-cap", "5"])[0] == 0


def test_missing_subcommand_exits_2(capsys):
    assert _run(capsys, [])[0] == 2
    assert _run(capsys, ["frobnicate"])[0] == 2


def test_every_degree_has_a_lower_bound(capsys):
    messages = {
        ("sublattices", "--degree", "0"): "--degree must be >= 1, got 0",
        ("series", "--which", "f", "--max-degree", "-1"): "--max-degree must be >= 0, got -1",
        ("correlators", "--insertions", "1,2,3,4", "--max-degree", "0"): "--max-degree must be >= 1, got 0",
        ("potential", "--max-degree", "0"): "--max-degree must be >= 1, got 0",
        ("verify", "--max-degree", "-3"): "--max-degree must be >= 1, got -3",
    }
    for argv, message in messages.items():
        assert _run(capsys, list(argv)) == (2, "", f"error: {message}\n")
    assert _run(capsys, ["series", "--which", "f", "--max-degree", "0"])[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["sublattices"],
        ["sublattices", "--degree", "x"],
        ["series", "--which", "f", "--max-degree", "1.5"],
        ["series", "--which", "D"],
        ["verify", "--suite", "bogus"],
        ["potential", "--format", "xml"],
        ["potential", "--bogus"],
        ["correlators", "--insertions", "1,2,3"],
        ["correlators", "--insertions", "1,2,3,a"],
        ["correlators", "--insertions", "0,2,3,4"],
        ["potential", "--max-degree", "0"],
        ["sublattices", "--degree", "10001"],
    ],
)
def test_usage_error_is_one_line(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


# Junk holds no digit, so every number in an argv comes from -3..6.
_junk = st.text(max_size=6).filter(lambda s: not any(c.isdigit() for c in s))
_degree = st.one_of(st.integers(-3, 6).map(str), _junk)


def _choice(*values):
    return st.one_of(st.sampled_from(values), _junk)


# Each subcommand's options and the values tried for them; None marks a switch.
_FUZZ_OPTIONS = {
    "sublattices": {"--degree": _degree},
    "series": {"--which": _choice(*cli.SERIES_BUILDERS), "--max-degree": _degree},
    "correlators": {"--insertions": _choice("1,2,3,4", "2,2,3,3"), "--max-degree": _degree},
    "potential": {"--max-degree": _degree, "--compare-st": None},
    "verify": {"--suite": _choice(*cli.VERIFY_SUITES, "all"), "--max-degree": _degree},
}
_FUZZ_COMMON = {"--degree-cap": _degree, "--format": _choice("pretty", "csv", "json")}


@st.composite
def _fuzz_argv(draw):
    command = draw(st.one_of(st.sampled_from(tuple(_FUZZ_OPTIONS)), _junk))
    argv = [command]
    for flag, value in {**_FUZZ_OPTIONS.get(command, {}), **_FUZZ_COMMON}.items():
        if draw(st.booleans()):
            argv += [flag] if value is None else [flag, draw(value)]
    return argv + draw(st.lists(_junk, max_size=1))


@settings(deadline=None, max_examples=300)
@given(_fuzz_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    # The default degree and the default cap drop to 6, so no argv reaches a
    # degree above 6 and the oracle's brute force stays fast.
    with (
        patch.object(cli, "DEFAULT_TRUNC", 6),
        patch.object(cli, "DEFAULT_DEGREE_CAP", 6),
        redirect_stdout(io.StringIO()),
        redirect_stderr(io.StringIO()),
    ):
        code = cli.main(argv)
    assert code in (0, 1, 2)


# ---------------------------------------------------------------------------
# plain output and process-level entry
# ---------------------------------------------------------------------------


def test_cli_color_env_does_not_change_output(capsys, monkeypatch):
    # stdout depends on argv alone, so setting CLI_COLOR changes nothing.
    argv = ["verify", "--suite", "oracle", "--max-degree", "3"]
    monkeypatch.delenv("CLI_COLOR", raising=False)
    plain = _run(capsys, argv)
    monkeypatch.setenv("CLI_COLOR", "1")
    assert _run(capsys, argv) == plain == (0, "PASS oracle (d <= 3)\n", "")


def test_mismatch_is_plain_in_every_format(capsys, monkeypatch):
    real = potential.st_reference_potential

    def perturbed(trunc):
        p = real(trunc)
        mono = potential.Monomial((0, 1, 1, 1, 1))
        coeffs = list(p.terms[mono].coeffs)
        coeffs[1] += 1
        terms = {**p.terms, mono: qseries.QSeries(tuple(coeffs))}
        return potential.Potential(p.log_term, terms, p.trunc)

    monkeypatch.setattr(potential, "st_reference_potential", perturbed)
    monkeypatch.setenv("CLI_COLOR", "1")
    argv = ["potential", "--max-degree", "4", "--compare-st", "--format"]
    for fmt in ("csv", "json", "pretty"):
        code, out, _ = _run(capsys, argv + [fmt])
        assert code == 1 and "\x1b[" not in out, fmt
    assert out.startswith("MISMATCH t1*t2*t3*t4 q^1: 1 != 2")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pillowcase.cli", "series", "--which", "f1", "--max-degree", "4", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0,-1/24\n1,0\n2,0\n3,0\n4,1\n"


def test_closed_stdout_exits_141_without_traceback():
    # 19,344 rows overflow the pipe buffer, so the child is still writing when
    # the reader hangs up after the first line.
    argv = [sys.executable, "-m", "pillowcase.cli", "sublattices", "--degree", "5040"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"h m g d\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""
