#!/usr/bin/env python3
"""Tour of the q-series the package is built around.

The basic object is f(q) = -1/24 + sum sigma_1(d) q^d.  Three derived
series slice it by parity of the divisor data:

    f0 = odd part of f            (only odd d survive)
    f1 = f(q^4)                   (degrees divisible by 4, plus the constant)
    f2 = f - f0 - f1              (the rest)

All coefficients are exact fractions; truncation is part of the value and
reading past it raises instead of returning a silent zero.
"""

from fractions import Fraction

from pillowcase import (
    coefficient,
    divisor_series,
    divisor_series_even,
    divisor_series_odd,
    f0_series,
    f1_series,
    f2_series,
    f_series,
)
from pillowcase.qseries import mul, sub, substitute_power

N = 16

f = f_series(N)
f0 = f0_series(N)
f1 = f1_series(N)
f2 = f2_series(N)

print(f"coefficients up to q^{N}:")
print(f"{'d':>3} {'f':>6} {'f0':>6} {'f1':>6} {'f2':>6}")
for d in range(N + 1):
    row = [coefficient(s, d) for s in (f, f0, f1, f2)]
    print("".join([f"{d:>3}"] + [f"{c!s:>7}" for c in row]))

# the three slices recombine to f, coefficient by coefficient
for d in range(N + 1):
    assert coefficient(f, d) == sum(coefficient(s, d) for s in (f0, f1, f2))
print("\nf = f0 + f1 + f2 holds at every degree")

# f0 is the odd divisor sum, f2 is the even one minus its q^4 dilate
assert f0 == divisor_series_odd(N)
assert f2 == sub(divisor_series_even(N), substitute_power(divisor_series(N), 4))
print("f0 = D_odd and f2 = D_even - D(q^4) hold as series")

# truncation semantics: arithmetic never invents coefficients
short = f_series(5)
product = mul(short, f)
print(f"\ntrunc of f_5 * f_{N} is min(5, {N}) = {product.trunc}")
try:
    coefficient(product, 6)
except ValueError as exc:
    print(f"reading q^6 from it raises: {exc}")

# and no floats, ever
try:
    from pillowcase.qseries import constant_series

    constant_series(0.5, 4)
except TypeError as exc:
    print(f"float coefficients are rejected: {exc}")

print(f"\nconstant term of f is {coefficient(f, 0)} (= -1/24 exactly)")
assert coefficient(f, 0) == Fraction(-1, 24)
