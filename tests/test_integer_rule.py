"""The integer rule of the exact core, one table for every integer argument.

Each argument takes a plain int at or above its minimum.  A bool (an int
subclass equal to 0 or 1), a float equal to an int, and the int just below
the minimum are all a ValueError, never a coerced or clamped value.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from pillowcase.lattice import HnfLattice, divisors, enumerate_sublattices, sigma1
from pillowcase.orbi import OrbiPoint, correlator, correlator_series, total_count_series
from pillowcase.potential import Monomial, Potential, assemble_potential, st_reference_potential
from pillowcase.qseries import (
    coefficient,
    constant_series,
    divisor_series,
    f_series,
    substitute_power,
)

ORBI_POINTS = (OrbiPoint.X1, OrbiPoint.X2, OrbiPoint.X3, OrbiPoint.X4)


def _census_built(call):
    # The production spelling: four OrbiPoints, as `assemble_potential` and
    # the oracle pass them.  The censuses of degrees 1 and 2 (what True and
    # 2.0 equal as dict keys) are built first, so a read that looked a degree
    # up before checking its type would return a count here, not raise.
    def warm_call(v):
        for d in (1, 2):
            correlator(ORBI_POINTS, d)
        return call(v)

    return warm_call


# argument -> (call with the value in that place, smallest value accepted)
ARGUMENTS = {
    "HnfLattice.h": (lambda v: HnfLattice(v, 0, 1), 1),
    "HnfLattice.m": (lambda v: HnfLattice(3, v, 1), 0),
    "HnfLattice.g": (lambda v: HnfLattice(1, 0, v), 1),
    "divisors": (divisors, 1),
    "sigma1": (sigma1, 1),
    "enumerate_sublattices": (enumerate_sublattices, 1),
    "constant_series": (lambda v: constant_series(1, v), 0),
    "divisor_series": (divisor_series, 0),
    "f_series": (f_series, 0),
    "substitute_power": (lambda v: substitute_power(f_series(3), v), 1),
    "coefficient": (lambda v: coefficient(f_series(3), v), 0),
    "correlator": (lambda v: correlator((1, 2, 3, 4), v), 1),
    "correlator_series": (lambda v: correlator_series((1, 2, 3, 4), v), 1),
    "correlator/OrbiPoint": (_census_built(lambda v: correlator(ORBI_POINTS, v)), 1),
    "correlator_series/OrbiPoint": (_census_built(lambda v: correlator_series(ORBI_POINTS, v)), 1),
    "total_count_series": (total_count_series, 1),
    "assemble_potential": (assemble_potential, 1),
    "st_reference_potential": (st_reference_potential, 1),
    "Monomial": (lambda v: Monomial((0, v, 1, 1, 1)), 0),
    "Potential.trunc": (lambda v: Potential(Fraction(1, 2), {}, v), 0),
}


@pytest.mark.parametrize("kind", ["bool", "float", "below"])
@pytest.mark.parametrize("argument", ARGUMENTS)
def test_integer_argument_refuses(argument, kind):
    call, minimum = ARGUMENTS[argument]
    with pytest.raises(ValueError):
        call({"bool": True, "float": 2.0, "below": minimum - 1}[kind])


@pytest.mark.parametrize("argument", ARGUMENTS)
def test_integer_argument_accepts_its_minimum(argument):
    call, minimum = ARGUMENTS[argument]
    call(minimum)
