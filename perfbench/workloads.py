"""Workloads of the pillowcase benchmark and the checks on their output.

Each workload is one CLI job whose top degree comes from the seed, within a
narrow band around a fixed base.  Every check recomputes the expected output
with the divisor sieve below and never imports pillowcase, so a defect in the
package cannot hide behind its own arithmetic.  A check returns None when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# The job whose time is `setup_s`: interpreter start, package import and
# argparse, with no counting work behind them.
SETUP_ARGV = ("sublattices", "--degree", "1")
SETUP_STDOUT = "h m g d\n1 0 1 1\ncount=1 sigma1=1\n"

# Caps of the oracle's exhaustive suites, as `verify` prints them.
SL2_CAP = 12
RH_CAP = 9


def sigma_table(n: int) -> list[int]:
    """sigma_1(0..n) by a divisor sieve; entry 0 is 0."""
    sigma = [0] * (n + 1)
    for k in range(1, n + 1):
        for multiple in range(k, n + 1, k):
            sigma[multiple] += k
    return sigma


def f2_coefficients(n: int) -> list[int]:
    """Coefficients of f2 = f - f0 - f1 up to q^n: even sigma minus sigma(d/4)."""
    sigma = sigma_table(n)
    return [
        (sigma[d] if d % 2 == 0 else 0) - (sigma[d // 4] if d % 4 == 0 else 0) if d else 0
        for d in range(n + 1)
    ]


def expected_potential_terms(n: int) -> dict[tuple[int, ...], list[Fraction]]:
    """Closed-form potential up to q^n, keyed by exponent tuples (e0, .., e4).

    t0*tj^2 carries the constant 1/4, t1*t2*t3*t4 the odd divisor sums, tj^4
    the constant -1/96 plus sigma(d/4)/4, and each ti^2*tj^2 one sixth of f2.
    Every other monomial is zero and absent.
    """
    sigma = sigma_table(n)
    f2 = f2_coefficients(n)
    pair = [Fraction(1, 4)] + [Fraction(0)] * n
    odd = [Fraction(sigma[d] if d % 2 else 0) for d in range(n + 1)]
    quartic = [Fraction(-1, 96)] + [
        Fraction(sigma[d // 4], 4) if d % 4 == 0 else Fraction(0) for d in range(1, n + 1)
    ]
    sixth_f2 = [Fraction(c, 6) for c in f2]
    terms: dict[tuple[int, ...], list[Fraction]] = {(0, 1, 1, 1, 1): odd}
    for j in range(1, 5):
        terms[tuple(1 if i == 0 else 2 if i == j else 0 for i in range(5))] = pair
        terms[tuple(4 if i == j else 0 for i in range(5))] = quartic
        for k in range(j + 1, 5):
            terms[tuple(2 if i in (j, k) else 0 for i in range(5))] = sixth_f2
    return terms


def check_potential_terms(log_term, terms: dict[tuple[int, ...], tuple], n: int) -> str | None:
    """Compare an assembled potential, as exponent tuples to coefficients."""
    if log_term != Fraction(1, 2):
        return f"log term {log_term}, expected 1/2"
    expected = expected_potential_terms(n)
    if set(terms) != set(expected):
        return f"monomials {sorted(set(terms) ^ set(expected))} differ from the closed form"
    for mono, want in expected.items():
        got = list(terms[mono])
        if got != want:
            deg = next((d for d, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
            return f"monomial {mono} differs at q^{deg}"
    return None


def check_setup(stdout: str, returncode: int, degree: int) -> str | None:
    if returncode != 0:
        return f"exit code {returncode}"
    if stdout != SETUP_STDOUT:
        return "sublattice listing for degree 1 differs"
    return None


def check_potential(stdout: str, returncode: int, degree: int) -> str | None:
    if returncode != 0:
        return f"exit code {returncode}"
    if stdout != "MATCH\n":
        return f"stdout {stdout[:80]!r}, expected 'MATCH'"
    return None


def check_series(stdout: str, returncode: int, degree: int) -> str | None:
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        obj = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if not isinstance(obj, dict) or set(obj) != {"coeffs", "trunc"} or obj["trunc"] != degree:
        return f"expected {{coeffs, trunc={degree}}}"
    want = [str(c) for c in f2_coefficients(degree)]
    got = obj["coeffs"]
    if got != want:
        if len(got) != len(want):
            return f"{len(got)} coefficients, expected {len(want)}"
        deg = next(d for d, (a, b) in enumerate(zip(got, want)) if a != b)
        return f"f2 coefficient of q^{deg} is {got[deg]!r}, expected {want[deg]!r}"
    return None


def verify_lines(degree: int) -> list[str]:
    return [
        f"PASS oracle (d <= {min(degree, SL2_CAP)})",
        f"PASS parity (d <= {degree})",
        f"PASS rh (d <= {min(degree, RH_CAP)})",
        f"PASS lumpsum (d <= {degree})",
        f"PASS closedform (d <= {degree})",
    ]


def check_verify(stdout: str, returncode: int, degree: int) -> str | None:
    if returncode != 0:
        return f"exit code {returncode}"
    if stdout.splitlines() != verify_lines(degree) or not stdout.endswith("\n"):
        return f"stdout {stdout[:120]!r} is not the five PASS lines"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    base_degree: int
    band: int
    argv: Callable[[int], list[str]]
    check: Callable[[str, int, int], str | None]
    why: str

    def degree(self, seed: int) -> int:
        """Top degree for a seed: base_degree +- band, the same for the same seed."""
        return random.Random(seed).randint(self.base_degree - self.band, self.base_degree + self.band)


# potential and verify exercise orbi and lattice in two ways; series bypasses
# orbi entirely, so an orbi change must leave it flat and a sigma1 or qseries
# change shows there first.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "potential",
            200,
            2,
            lambda n: ["potential", "--max-degree", str(n), "--compare-st"],
            check_potential,
            "the end-to-end run the roadmap names; orbi.correlator and sublattice "
            "enumeration take over 90% of it, so an orbi or lattice rewrite shows here",
        ),
        Workload(
            "series",
            4000,
            40,
            lambda n: ["series", "--which", "f2", "--max-degree", str(n), "--format", "json"],
            check_series,
            "no orbi work at all: lattice.sigma1 takes about 90%, the rest is qseries "
            "and JSON output, so a divisor sieve shows here and an orbi change must not",
        ),
        Workload(
            "verify",
            100,
            1,
            lambda n: ["verify", "--suite", "all", "--max-degree", str(n)],
            check_verify,
            "the same orbi and lattice code called differently (translated tuples, "
            "lumpsum splits) beside the oracle's own brute force, which must not move",
        ),
    )
}
