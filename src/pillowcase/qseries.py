"""Truncated power series in q with exact rational coefficients.

A :class:`QSeries` stores c_0..c_N as plain-int numerators over one positive
denominator, in lowest terms: gcd(den, num_0, ..., num_N) == 1, so equal
series have equal fields and hash alike however they were built.  Arithmetic
is integer arithmetic on the numerators followed by that one gcd; no
coefficient is converted along the way.  A `fractions.Fraction` is made only
when a caller reads `coeffs` (built anew on each read, so read it once or use
:func:`coefficient`) or :func:`coefficient`.  :func:`to_json` makes none: it
writes each coefficient from the numerators as the exact string str(Fraction)
gives, and every writer in the package prints those strings.  The public
constructor takes a tuple or a list of ints and Fractions and refuses anything else.

Truncation is part of the value: arithmetic carries trunc = min of the
operand truncations, and reading a coefficient beyond the truncation is an
error rather than a silent zero.  No floating point enters anywhere.

The series of interest are built from the divisor sum sigma_1:

    f(q)      = -1/24 + sum_{d>=1} sigma_1(d) q^d
    f0(q)     = (f(q) - f(-q)) / 2          (odd part)
    f1(q)     = f(q^4)
    f2(q)     = f(q) - f0(q) - f1(q)

All four read one table of sigma_1: :func:`divisor_series` keeps the last
table it built, keyed by (trunc, the `sigma1` this module binds at the call),
so f2 and the closed-form potential run the trial division once per
truncation instead of once per named series.  The memo holds one entry, the
N + 1 ints of the last truncation N (about 3.6 MB at N = 10^5), alive until
the next table replaces it; a patched or traced `sigma1` is a new key and
never reads an old table.  Series objects themselves carry no cache.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add as _int_add, sub as _int_sub

from .lattice import _need_int, sigma1


def _ratio(value) -> tuple[int, int]:
    # Int or Fraction only: a float or a bool is inexact or ambiguous, and no
    # producer in the core makes a rational string or a Decimal.
    if type(value) is int:
        return value, 1
    if type(value) is Fraction:
        return value.numerator, value.denominator
    raise TypeError(f"need an int or a Fraction, got {type(value).__name__} {value!r}")


class QSeries:
    """Coefficients (c_0, ..., c_N); the truncation N is len(coeffs) - 1.

    `QSeries(coeffs)` takes a nonempty tuple or list of ints and Fractions;
    any other container (a dict, a set, a generator) is a TypeError.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs) -> None:
        if type(coeffs) not in (tuple, list):
            raise TypeError(f"need a tuple or a list of coefficients, got {type(coeffs).__name__}")
        if len(coeffs) == 0:
            raise ValueError("a series needs at least its constant coefficient")
        pairs = [_ratio(c) for c in coeffs]
        den = lcm(*(d for _, d in pairs))
        _settle(self, [n * (den // d) for n, d in pairs], den)

    @property
    def trunc(self) -> int:
        return len(self._num) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, built anew on each read."""
        den = self._den
        return tuple(Fraction(n, den) for n in self._num)

    def __eq__(self, other) -> bool:
        if type(other) is not QSeries:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"QSeries({self.coeffs!r})"


def _settle(s: QSeries, num, den: int) -> QSeries:
    # Fill s with num / den reduced to lowest terms; den > 0.
    num = tuple(num)
    g = gcd(den, *num)
    if g != 1:
        num = tuple(n // g for n in num)
        den //= g
    s._num = num
    s._den = den
    return s


def _series(num, den: int = 1) -> QSeries:
    # The series num / den from integer numerators, past the input check.
    return _settle(object.__new__(QSeries), num, den)


def zero_series(trunc: int) -> QSeries:
    return constant_series(0, trunc)


def constant_series(value: Fraction | int, trunc: int) -> QSeries:
    n, d = _ratio(value)
    return _series((n,) + (0,) * _need_int("trunc", trunc, 0), d)


def coefficient(a: QSeries, d: int) -> Fraction:
    """Coefficient of q^d; an error beyond the truncation, never a zero.

    >>> coefficient(f_series(6), 6)
    Fraction(12, 1)
    """
    if _need_int("d", d, 0) > a.trunc:
        raise ValueError(f"degree {d} outside truncation 0..{a.trunc}")
    return Fraction(a._num[d], a._den)


def _combine(op, a: QSeries, b: QSeries) -> QSeries:
    # a op b for op in (+, -), over the common denominator lcm(a.den, b.den).
    if a._den == b._den:
        return _series(map(op, a._num, b._num), a._den)
    den = lcm(a._den, b._den)
    ka, kb = den // a._den, den // b._den
    return _series([op(x * ka, y * kb) for x, y in zip(a._num, b._num)], den)


def add(a: QSeries, b: QSeries) -> QSeries:
    return _combine(_int_add, a, b)


def sub(a: QSeries, b: QSeries) -> QSeries:
    return _combine(_int_sub, a, b)


def scale(a: QSeries, r: Fraction | int) -> QSeries:
    n, d = _ratio(r)
    return _series([n * x for x in a._num], a._den * d)


def mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product, truncated to the shorter operand."""
    n = min(a.trunc, b.trunc)
    bn = b._num
    out = [0] * (n + 1)
    for i, ai in enumerate(a._num[: n + 1]):
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            out[i + j] += ai * bn[j]
    return _series(out, a._den * b._den)


def substitute_power(a: QSeries, k: int) -> QSeries:
    """The series a(q^k), truncated like a; source read up to floor(N/k).

    >>> substitute_power(f_series(4), 4).coeffs
    (Fraction(-1, 24), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(1, 1))
    """
    _need_int("k", k, 1)
    n = a.trunc
    out = [0] * (n + 1)
    out[::k] = a._num[: n // k + 1]
    return _series(out, a._den)


def negate_variable(a: QSeries) -> QSeries:
    """The series a(-q): odd coefficients flip sign."""
    out = list(a._num)
    out[1::2] = [-c for c in out[1::2]]
    return _series(out, a._den)


# ---------------------------------------------------------------------------
# named series
# ---------------------------------------------------------------------------


def divisor_series(trunc: int) -> QSeries:
    """sum_{d>=1} sigma_1(d) q^d, zero constant term.

    The table is memoised, one entry keyed by (trunc, the module's `sigma1`
    at the call): a repeat at the same truncation returns the same series
    without calling `sigma1`, and the last table stays alive (N + 1 ints).
    """
    return _divisor_table(_need_int("trunc", trunc, 0), sigma1)


@lru_cache(maxsize=1)
def _divisor_table(trunc: int, sigma) -> QSeries:
    # Keyed by the function as well, so a patched sigma1 never reads an old
    # table; trunc is a checked int here, so True never hits the entry for 1.
    return _series([0] + [sigma(d) for d in range(1, trunc + 1)])


def divisor_series_odd(trunc: int) -> QSeries:
    s = divisor_series(trunc)
    return _series([c if i % 2 else 0 for i, c in enumerate(s._num)])


def divisor_series_even(trunc: int) -> QSeries:
    s = divisor_series(trunc)
    return _series([0 if i % 2 else c for i, c in enumerate(s._num)])


def f_series(trunc: int) -> QSeries:
    """-1/24 + q + 3q^2 + 4q^3 + 7q^4 + ..."""
    return add(constant_series(Fraction(-1, 24), trunc), divisor_series(trunc))


def f0_series(trunc: int) -> QSeries:
    """Odd part (f(q) - f(-q)) / 2, computed from f itself."""
    f = f_series(trunc)
    return scale(sub(f, negate_variable(f)), Fraction(1, 2))


def f1_series(trunc: int) -> QSeries:
    """f(q^4)."""
    return substitute_power(f_series(trunc), 4)


def f2_series(trunc: int) -> QSeries:
    """f - f0 - f1; the remaining even-degree part."""
    return sub(sub(f_series(trunc), f0_series(trunc)), f1_series(trunc))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def to_json(a: QSeries) -> dict:
    """{"trunc": N, "coeffs": ["p/q", ...]} with exact rational strings, as str(Fraction)."""
    den = a._den
    coeffs = []
    for n in a._num:
        g = gcd(n, den)
        coeffs.append(str(n // g) if g == den else f"{n // g}/{den // g}")
    return {"trunc": a.trunc, "coeffs": coeffs}
