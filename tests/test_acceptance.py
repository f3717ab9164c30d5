"""Acceptance gate: every headline claim at full scale, exact arithmetic.

Each test prints one pass/fail line with its wall time; the stated limits
are generous on a desk machine, and the arithmetic itself is exact, so any
failure is a real defect rather than noise.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest

from pillowcase import cli, oracle, orbi, potential, qseries
from pillowcase.lattice import enumerate_sublattices, sigma1
from pillowcase.orbi import OrbiPoint, total_count_series
from pillowcase.potential import Monomial, assemble_potential, compare_potentials, st_reference_potential
from pillowcase.qseries import (
    add,
    constant_series,
    divisor_series,
    divisor_series_even,
    divisor_series_odd,
    f0_series,
    f2_series,
    f_series,
    scale,
    sub,
    substitute_power,
)

SPOT_COUNTS_1_TO_17 = [1, 3, 4, 7, 6, 12, 8, 15, 13, 18, 12, 28, 14, 24, 24, 31, 18]


@contextmanager
def _criterion(num: int | str, label: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < limit_s else "FAIL"
    print(f"criterion {num} ({label}): {verdict}  [{elapsed:.2f}s, limit {limit_s:.0f}s]")
    assert elapsed < limit_s, f"exceeded the {limit_s:.0f}s budget: {elapsed:.2f}s"


def test_criterion_1_sublattice_census():
    with _criterion(1, "sublattice count is sigma1 up to 200", 1.0):
        for d in range(1, 201):
            assert len(enumerate_sublattices(d)) == sigma1(d)
        assert [sigma1(d) for d in range(1, 18)] == SPOT_COUNTS_1_TO_17


def test_criterion_2_orbit_census_triple_agreement():
    with _criterion(2, "matrix orbits = sigma1 = enumeration up to 12", 60.0):
        assert oracle.orbit_agreement_check(12).ok


def test_criterion_3_corner_classification():
    with _criterion(3, "corner images from rational points up to 100", 10.0):
        result = oracle.image_table_check(100)
        assert result.ok
        assert result.details["lattices"] == sum(sigma1(d) for d in range(1, 101))


def test_criterion_4_closed_form_crosscheck():
    with _criterion(4, "four-point counts match closed forms up to 100", 30.0):
        assert oracle.correlator_crosscheck(100).ok


def test_criterion_5_lump_sum():
    with _criterion(5, "total count is six covers per sublattice up to 100", 5.0):
        n = 100
        corrected = scale(add(f_series(n), constant_series(Fraction(1, 24), n)), 6)
        totals = total_count_series(n)
        assert totals == corrected
        coeffs = totals.coeffs
        for d in range(1, n + 1):
            assert coeffs[d] == 6 * sigma1(d)


def test_criterion_6_potential_matches_closed_form():
    with _criterion(6, "assembled potential equals the closed form at 100", 10.0):
        assembled = assemble_potential(100)
        assert compare_potentials(assembled, st_reference_potential(100)) == []
        assert assembled.log_term == Fraction(1, 2)
        for j in range(1, 5):
            exps = [0] * 5
            exps[j] = 4
            assert assembled.terms[Monomial(tuple(exps))].coeffs[0] == Fraction(-1, 96)


def test_criterion_7_branching_census():
    with _criterion(7, "only unramified branching data up to 9", 60.0):
        for d in range(1, 10):
            result = oracle.rh_uniqueness_check(d)
            assert result.ok
            assert result.details["solutions"] > 0


def test_criterion_8_series_split_identities():
    with _criterion(8, "f0 and f2 split identities at 200", 1.0):
        n = 200
        assert f0_series(n) == divisor_series_odd(n)
        assert f2_series(n) == sub(
            divisor_series_even(n), substitute_power(divisor_series(n), 4)
        )


def test_criterion_9_fault_injection(capsys, monkeypatch):
    with _criterion(9, "each verify suite fails under its injected fault", 30.0):
        # clean baselines
        assert cli.main(["verify", "--suite", "parity", "--max-degree", "6"]) == 0
        assert cli.main(["verify", "--suite", "closedform", "--max-degree", "6"]) == 0
        assert cli.main(["verify", "--suite", "lumpsum", "--max-degree", "6"]) == 0
        assert cli.main(["potential", "--max-degree", "6", "--compare-st"]) == 0
        capsys.readouterr()

        # swapped corner columns in the parity table
        with monkeypatch.context() as patch:
            swap = {OrbiPoint.X3: OrbiPoint.X4, OrbiPoint.X4: OrbiPoint.X3}
            bad_table = {
                key: tuple(swap.get(p, p) for p in images)
                for key, images in oracle.INSERTION_PARITY_TABLE.items()
            }
            patch.setattr(oracle, "INSERTION_PARITY_TABLE", bad_table)
            assert cli.main(["verify", "--suite", "parity", "--max-degree", "6"]) == 1
            out = capsys.readouterr().out
            assert json.loads(out.splitlines()[-1])["d"] == 1

        # dropped reordering of the free corners
        with monkeypatch.context() as patch:
            kept = tuple(t for t in orbi.MARKING_PERMUTATIONS if t != (2, 4, 3))
            patch.setattr(orbi, "MARKING_PERMUTATIONS", kept)
            assert cli.main(["verify", "--suite", "closedform", "--max-degree", "6"]) == 1
            assert cli.main(["verify", "--suite", "lumpsum", "--max-degree", "6"]) == 1
            out = capsys.readouterr().out
            assert "FAIL" in out

        # perturbed coefficient in the reference potential
        with monkeypatch.context() as patch:
            real = potential.st_reference_potential

            def perturbed(trunc):
                p = real(trunc)
                mono = Monomial((0, 1, 1, 1, 1))
                coeffs = list(p.terms[mono].coeffs)
                coeffs[1] += 1
                terms = dict(p.terms)
                terms[mono] = qseries.QSeries(tuple(coeffs))
                return potential.Potential(p.log_term, terms, p.trunc)

            patch.setattr(potential, "st_reference_potential", perturbed)
            assert cli.main(["potential", "--max-degree", "6", "--compare-st"]) == 1
            out = capsys.readouterr().out
            assert "MISMATCH" in out

        # everything recovers once the faults are lifted
        assert cli.main(["verify", "--suite", "parity", "--max-degree", "6"]) == 0
        assert cli.main(["potential", "--max-degree", "6", "--compare-st"]) == 0
        capsys.readouterr()


def test_criterion_10_f2_series_at_large_degree(capsys):
    with _criterion(10, "f2 from the CLI equals its closed form at 10^4", 5.0):
        n = 10**4
        sigma = [0] * (n + 1)
        for k in range(1, n + 1):
            for multiple in range(k, n + 1, k):
                sigma[multiple] += k
        # f2 = f - f0 - f1: sigma(d) on even d, less sigma(d/4) when 4 | d.
        expected = [0] * (n + 1)
        for d in range(2, n + 1, 2):
            expected[d] = sigma[d] - (sigma[d // 4] if d % 4 == 0 else 0)
        argv = ["series", "--which", "f2", "--max-degree", str(n), "--format", "json"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert out == json.dumps({"coeffs": [str(c) for c in expected], "trunc": n}) + "\n"


def test_acceptance_partition_identity_full_scale():
    # companion to criterion 5: the ordered counts themselves split the total
    with _criterion("5b", "ordered counts partition the total up to 100", 30.0):
        points = tuple(OrbiPoint)
        for d in range(1, 101):
            split = sum(
                orbi.correlator((OrbiPoint.X1,) + rest, d)
                for rest in product(points, repeat=3)
            )
            assert split == 6 * sigma1(d)
