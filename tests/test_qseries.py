from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pillowcase import cli
from pillowcase.orbi import correlator_series, total_count_series
from pillowcase.qseries import (
    QSeries,
    add,
    coefficient,
    constant_series,
    divisor_series,
    divisor_series_even,
    divisor_series_odd,
    f0_series,
    f1_series,
    f2_series,
    f_series,
    mul,
    negate_variable,
    scale,
    sub,
    substitute_power,
    to_json,
    zero_series,
)

F = Fraction

# Coefficients of f through q^17; the nonconstant part is the divisor sum.
F_COEFFS_17 = [F(-1, 24), 1, 3, 4, 7, 6, 12, 8, 15, 13, 18, 12, 28, 14, 24, 24, 31, 18]


def _convolve(a: QSeries, b: QSeries, n: int) -> Fraction:
    # independent reference for one product coefficient
    ac, bc = a.coeffs, b.coeffs
    return sum((ac[i] * bc[n - i] for i in range(n + 1)), F(0))


# ---------------------------------------------------------------------------
# the named series
# ---------------------------------------------------------------------------


def test_f_series_expansion():
    assert list(f_series(17).coeffs) == F_COEFFS_17
    assert coefficient(f_series(6), 6) == 12


def test_f0_series_keeps_odd_part():
    assert f0_series(5).coeffs == (F(0), F(1), F(0), F(4), F(0), F(6))


def test_f1_series_is_f_of_q4():
    assert f1_series(3).coeffs == (F(-1, 24), F(0), F(0), F(0))
    assert f1_series(4).coeffs == (F(-1, 24), F(0), F(0), F(0), F(1))
    assert coefficient(f1_series(8), 8) == 3


def test_f2_series_constant_vanishes():
    assert coefficient(f2_series(4), 0) == 0


def test_divisor_series_even_values():
    assert divisor_series_even(4).coeffs == (F(0), F(0), F(3), F(0), F(7))


def test_split_identities():
    # f0 is the odd divisor part; f2 is the even part minus the q^4 copy.
    for n in (0, 1, 13, 50):
        assert f0_series(n) == divisor_series_odd(n)
        assert f2_series(n) == sub(
            divisor_series_even(n), substitute_power(divisor_series(n), 4)
        )
        assert f_series(n) == add(add(f0_series(n), f1_series(n)), f2_series(n))


def test_divisor_series_against_geometric_expansion():
    # sum_{n>=1} n q^n / (1 - q^n) expanded term by term gives the same
    # coefficients, an independent route to the divisor sums.
    n_max = 40
    acc = [F(0)] * (n_max + 1)
    for n in range(1, n_max + 1):
        for k in range(n, n_max + 1, n):
            acc[k] += n
    assert divisor_series(n_max) == QSeries(tuple(acc))


# ---------------------------------------------------------------------------
# arithmetic semantics
# ---------------------------------------------------------------------------


def test_mul_coefficients_by_hand_convolution():
    square = mul(f_series(4), f_series(4))
    # 2 * (-1/24) * 1 = -1/12 at q^1; 2 * (-1/24) * 3 + 1 = 3/4 at q^2
    assert coefficient(square, 1) == F(-1, 12)
    assert coefficient(square, 2) == F(3, 4)
    for n in range(5):
        assert coefficient(square, n) == _convolve(f_series(4), f_series(4), n)


def test_truncation_is_min_of_operands():
    a, b = f_series(10), f_series(4)
    for op in (add, sub, mul):
        assert op(a, b).trunc == 4
        assert op(b, a).trunc == 4


def test_coefficient_beyond_truncation_is_an_error():
    s = f_series(4)
    with pytest.raises(ValueError):
        coefficient(s, 5)
    with pytest.raises(ValueError):
        coefficient(s, -1)


def test_substitute_power_consumes_prefix():
    s = QSeries((F(5), F(1), F(2), F(3), F(4), F(6), F(7)))
    out = substitute_power(s, 3)
    assert out.trunc == s.trunc
    assert out.coeffs == (F(5), F(0), F(0), F(1), F(0), F(0), F(2))
    assert substitute_power(s, 1) == s
    with pytest.raises(ValueError):
        substitute_power(s, 0)


def test_negate_variable_flips_odd_degrees():
    s = QSeries((F(1), F(2), F(3), F(4)))
    assert negate_variable(s).coeffs == (F(1), F(-2), F(3), F(-4))
    assert negate_variable(constant_series(1, 3)) == constant_series(1, 3)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        QSeries((0.5,))
    with pytest.raises(TypeError):
        scale(f_series(2), 0.5)
    with pytest.raises(TypeError):
        constant_series(1.0, 2)


def test_bools_are_rejected():
    # bool is an int subclass; the constructor refuses it as it refuses float
    with pytest.raises(TypeError):
        QSeries((True, False))
    with pytest.raises(TypeError):
        constant_series(True, 1)
    with pytest.raises(TypeError):
        scale(f_series(2), True)


@pytest.mark.parametrize("value", ["1/2", "3", Decimal("0.5")])
def test_only_ints_and_fractions_are_converted(value):
    # A rational string or a Decimal is exact, but no producer of the core
    # makes one; the converter takes an int or a Fraction and nothing else.
    with pytest.raises(TypeError):
        QSeries((value,))
    with pytest.raises(TypeError):
        scale(f_series(2), value)


def test_every_builder_stores_fractions():
    # The constructor is the one place a coefficient is converted, so a
    # builder that passes ints (zero fills, divisor sums, counts) still ends
    # with Fractions, and one that passes Fractions keeps them.
    built = [builder(9) for builder in cli.SERIES_BUILDERS.values()] + [
        correlator_series((1, 2, 3, 4), 9),
        total_count_series(9),
        constant_series(3, 9),
        mul(divisor_series(9), divisor_series(9)),
        substitute_power(f_series(9), 3),
    ]
    for series in built:
        assert all(type(c) is Fraction for c in series.coeffs), series


@pytest.mark.parametrize(
    "coeffs, kind",
    [({5: 1}, "dict"), ({1, 2}, "set"), ((c for c in (1, 2)), "generator"), (3, "int")],
)
def test_only_a_tuple_or_a_list_is_read(coeffs, kind):
    # A dict's keys or a set's members would be read as coefficients; no coercion.
    with pytest.raises(TypeError) as caught:
        QSeries(coeffs)
    assert str(caught.value) == f"need a tuple or a list of coefficients, got {kind}"


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        QSeries(())
    with pytest.raises(ValueError):
        constant_series(1, -1)



def test_arithmetic_has_no_operators():
    # add, sub and mul are the one spelling of series arithmetic.
    a = QSeries((1, 2))
    for op in ("__add__", "__sub__", "__mul__"):
        assert not hasattr(QSeries, op), op
    with pytest.raises(TypeError):
        a + a

_fraction = st.fractions(min_value=-10, max_value=10, max_denominator=12)
_series = st.lists(_fraction, min_size=1, max_size=12).map(lambda cs: QSeries(tuple(cs)))


@given(_series, _series)
def test_ring_commutativity(a, b):
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)


@given(_series, _series, _series)
def test_ring_associativity_and_distributivity(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(_series, _series, _fraction, st.integers(min_value=1, max_value=5))
def test_arithmetic_matches_fraction_reference(a, b, r, k):
    # Each operation against its definition, coefficient by coefficient in
    # Fractions; equal values must also compare and hash equal.
    n = min(a.trunc, b.trunc)
    ac = a.coeffs
    expected = [
        (add(a, b), [x + y for x, y in zip(a.coeffs, b.coeffs)]),
        (sub(a, b), [x - y for x, y in zip(a.coeffs, b.coeffs)]),
        (scale(a, r), [r * x for x in a.coeffs]),
        (mul(a, b), [_convolve(a, b, i) for i in range(n + 1)]),
        (negate_variable(a), [-x if i % 2 else x for i, x in enumerate(a.coeffs)]),
        (substitute_power(a, k), [F(0) if j % k else ac[j // k] for j in range(a.trunc + 1)]),
    ]
    for got, coeffs in expected:
        assert list(got.coeffs) == coeffs
        assert got == QSeries(tuple(coeffs))
        assert hash(got) == hash(QSeries(tuple(coeffs)))
    assert sub(a, a) == zero_series(a.trunc)
    assert hash(sub(a, a)) == hash(zero_series(a.trunc))


def test_equal_values_compare_equal_however_built():
    assert scale(QSeries((2, 4)), F(1, 2)) == QSeries((1, 2))
    assert scale(QSeries((F(1, 3), F(2, 3))), 3) == QSeries((1, 2))
    assert add(constant_series(F(1, 2), 2), constant_series(F(1, 2), 2)) == constant_series(1, 2)
    assert {QSeries((F(6, 4),)), QSeries((F(3, 2),))} == {scale(QSeries((3,)), F(1, 2))}
    assert coefficient(scale(QSeries((2, 4)), F(1, 4)), 1) == 1
    assert QSeries((1, 2)) != QSeries((1, 2, 0))
    assert QSeries([1, F(1, 2)]) == QSeries((1, F(1, 2)))


@given(_series)
def test_scale_matches_constant_multiplication(a):
    assert scale(a, F(3, 7)) == mul(a, constant_series(F(3, 7), a.trunc))
    assert add(a, zero_series(a.trunc)) == a


# Ints and Fractions of any size and sign, zero included, so the common
# denominator to_json reduces each coefficient against can be large.
_exact = st.one_of(st.integers(), st.fractions(), st.fractions(max_denominator=10**40))


@example([F(-1, 24), 0, F(10**30 + 1, 10**29), -7, F(-5, 2**64)])
@given(st.lists(_exact, min_size=1, max_size=12))
def test_to_json_writes_what_str_fraction_writes(cs):
    assert to_json(QSeries(cs))["coeffs"] == [str(Fraction(c)) for c in cs]
