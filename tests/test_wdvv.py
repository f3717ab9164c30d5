"""WDVV associativity on the raw four-point counts, to degree 100.

The counts make a genus-zero potential, so they satisfy the WDVV equations.
The cubic terms fix the metric: eta(t0, log q) = 1 and eta(tj, tj) = 1/2.
Put a = the t1*t2*t3*t4 series, b = the tj^4 series, c = the ti^2*tj^2
series and D = q d/dq.  The equations whose four indices all lie in t1..t4
then reduce to three first-order equations:

    D c = a^2 - 16 c^2
    D a = 16 a c - 96 a b
    6 D b + D c = 32 c^2 - 192 b c

At q^n they fix a_n (n >= 2), then c_n, then b_n, from lower degrees and
a_1 = 1 alone.  So counts that pass and have the three-family shape equal
the closed form to q^N, and no divisor sum or closed form is read here:
every count comes from `orbi.correlator`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from pillowcase import orbi

N = 100

# Each family's insertion classes, the weight that turns a raw count into
# the potential's coefficient, and the degree-zero term.
FAMILIES = {
    "a": [(1, 2, 3, 4)],
    "b": [(j, j, j, j) for j in range(1, 5)],
    "c": [(i, i, j, j) for i, j in combinations(range(1, 5), 2)],
}
WEIGHTS = {"a": Fraction(1), "b": Fraction(1, 24), "c": Fraction(1, 4)}
CONSTANTS = {"a": Fraction(0), "b": Fraction(-1, 96), "c": Fraction(0)}


def _series(family: str, n_max: int) -> list[Fraction]:
    ins = FAMILIES[family][0]
    counts = (orbi.correlator(ins, n) for n in range(1, n_max + 1))
    return [CONSTANTS[family], *(WEIGHTS[family] * count for count in counts)]


def _cauchy(x: list, y: list, n: int) -> Fraction:
    # The q^n coefficient of the product of two series.
    return sum(x[k] * y[n - k] for k in range(n + 1))


def _first_failures(n_max: int) -> dict[str, int]:
    # The first degree at which each equation fails; empty when all hold.
    a, b, c = (_series(family, n_max) for family in "abc")
    failures = {}
    for n in range(1, n_max + 1):
        holds = {
            "D c": n * c[n] == _cauchy(a, a, n) - 16 * _cauchy(c, c, n),
            "D a": n * a[n] == 16 * _cauchy(a, c, n) - 96 * _cauchy(a, b, n),
            "6 D b + D c": 6 * n * b[n] + n * c[n] == 32 * _cauchy(c, c, n) - 192 * _cauchy(b, c, n),
        }
        for equation, ok in holds.items():
            if not ok:
                failures.setdefault(equation, n)
    return failures


def test_counts_have_the_three_family_shape():
    members = {ins for family in FAMILIES.values() for ins in family}
    classes = list(combinations_with_replacement(range(1, 5), 4))
    assert len(classes) == 35 and len(members) == 11 and members <= set(classes)
    for n in range(1, N + 1):
        assert [ins for ins in classes if ins not in members and orbi.correlator(ins, n)] == [], n
        for family in FAMILIES.values():
            assert len({orbi.correlator(ins, n) for ins in family}) == 1, (family, n)


def test_wdvv_holds_on_the_counts():
    assert _series("a", 1)[1] == 1  # the single degree-1 cover through four distinct corners
    assert _first_failures(N) == {}


def test_wdvv_catches_a_parity_class_swap(monkeypatch):
    # Above degree 40, lattices of parity class (0, 0, 1) get the corner images
    # of class (0, 1, 0) and the other way round.
    real = orbi.classify_images
    swap = {(0, 0, 1): (0, 1, 0), (0, 1, 0): (0, 0, 1)}

    def swapped(lat):
        parity = (lat.h % 2, lat.m % 2, lat.g % 2)
        if lat.d > 40 and parity in swap:
            return orbi._IMAGES_BY_PARITY[swap[parity]]
        return real(lat)

    monkeypatch.setattr(orbi, "classify_images", swapped)
    assert _first_failures(N) == {"D c": 42, "D a": 43, "6 D b + D c": 42}
