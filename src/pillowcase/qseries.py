"""Truncated power series in q with exact rational coefficients.

A :class:`QSeries` stores coefficients c_0..c_N as `fractions.Fraction`; only
its constructor converts them (ints, rational strings) or rejects them (floats,
bools).  Truncation is part of the value: arithmetic carries trunc = min of
the operand truncations, and reading a coefficient beyond the truncation is
an error rather than a silent zero.  No floating point enters anywhere.

The series of interest are built from the divisor sum sigma_1:

    f(q)      = -1/24 + sum_{d>=1} sigma_1(d) q^d
    f0(q)     = (f(q) - f(-q)) / 2          (odd part)
    f1(q)     = f(q^4)
    f2(q)     = f(q) - f0(q) - f1(q)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import sigma1

Rational = Fraction | int


def _as_fraction(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise TypeError(f"{type(value).__name__} values are not allowed, got {value!r}")
    return Fraction(value)


@dataclass(frozen=True)
class QSeries:
    """Coefficients (c_0, ..., c_N); the truncation N is len(coeffs) - 1."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(self, "coeffs", tuple(_as_fraction(c) for c in self.coeffs))

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "QSeries") -> "QSeries":
        return add(self, other)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return sub(self, other)

    def __mul__(self, other: "QSeries") -> "QSeries":
        return mul(self, other)


def zero_series(trunc: int) -> QSeries:
    return constant_series(0, trunc)


def constant_series(value: Rational, trunc: int) -> QSeries:
    if trunc < 0:
        raise ValueError(f"need trunc >= 0, got {trunc}")
    return QSeries((value,) + (0,) * trunc)


def coefficient(a: QSeries, d: int) -> Fraction:
    """Coefficient of q^d; an error beyond the truncation, never a zero.

    >>> coefficient(f_series(6), 6)
    Fraction(12, 1)
    """
    if not 0 <= d <= a.trunc:
        raise ValueError(f"degree {d} outside truncation 0..{a.trunc}")
    return a.coeffs[d]


def add(a: QSeries, b: QSeries) -> QSeries:
    return QSeries(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def sub(a: QSeries, b: QSeries) -> QSeries:
    return QSeries(tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def scale(a: QSeries, r: Rational) -> QSeries:
    r = _as_fraction(r)
    return QSeries(tuple(r * c for c in a.coeffs))


def mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product, truncated to the shorter operand."""
    n = min(a.trunc, b.trunc)
    out = [0] * (n + 1)
    for i in range(n + 1):
        ai = a.coeffs[i]
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            out[i + j] += ai * b.coeffs[j]
    return QSeries(tuple(out))


def substitute_power(a: QSeries, k: int) -> QSeries:
    """The series a(q^k), truncated like a; source read up to floor(N/k).

    >>> substitute_power(f_series(4), 4).coeffs
    (Fraction(-1, 24), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(1, 1))
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    n = a.trunc
    out = [0] * (n + 1)
    for j in range(0, n + 1, k):
        out[j] = a.coeffs[j // k]
    return QSeries(tuple(out))


def negate_variable(a: QSeries) -> QSeries:
    """The series a(-q): odd coefficients flip sign."""
    return QSeries(tuple(-c if i % 2 else c for i, c in enumerate(a.coeffs)))


# ---------------------------------------------------------------------------
# named series
# ---------------------------------------------------------------------------


def divisor_series(trunc: int) -> QSeries:
    """sum_{d>=1} sigma_1(d) q^d, zero constant term."""
    if trunc < 0:
        raise ValueError(f"need trunc >= 0, got {trunc}")
    return QSeries((0,) + tuple(sigma1(d) for d in range(1, trunc + 1)))


def divisor_series_odd(trunc: int) -> QSeries:
    s = divisor_series(trunc)
    return QSeries(tuple(c if i % 2 else 0 for i, c in enumerate(s.coeffs)))


def divisor_series_even(trunc: int) -> QSeries:
    s = divisor_series(trunc)
    return QSeries(tuple(0 if i % 2 else c for i, c in enumerate(s.coeffs)))


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
    """{"trunc": N, "coeffs": ["p/q", ...]} with exact rational strings."""
    return {"trunc": a.trunc, "coeffs": [str(c) for c in a.coeffs]}


def from_json(obj: dict) -> QSeries:
    """Inverse of :func:`to_json`; coefficients must be strings, trunc a plain int."""
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list) or not all(type(c) is str for c in coeffs):
        raise ValueError(f"coefficients must be a list of rational strings, got {coeffs!r}")
    series = QSeries(tuple(coeffs))
    if "trunc" in obj and (type(obj["trunc"]) is not int or obj["trunc"] != series.trunc):
        raise ValueError(f"trunc {obj['trunc']!r} does not match {len(coeffs)} coefficients")
    return series
