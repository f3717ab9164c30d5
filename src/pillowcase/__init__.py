"""Exact counts of holomorphic orbi-spheres on the pillowcase orbifold.

The package enumerates finite-index sublattices of the square lattice in
Hermite normal form, classifies the corner images of the associated covers,
counts four-point configurations, and assembles the genus-zero potential,
all in exact rational arithmetic.  Brute-force cross-checks live in
:mod:`pillowcase.oracle`; a command-line front end in :mod:`pillowcase.cli`.
"""

from .lattice import (
    Basis2,
    HnfLattice,
    det,
    enumerate_sublattices,
    hnf_reduce,
    sigma1,
)
from .orbi import (
    OrbiPoint,
    classify_images,
    correlator,
    correlator_series,
    total_count_series,
    translate_action,
)
from .potential import (
    Monomial,
    Potential,
    assemble_potential,
    compare_potentials,
    st_reference_potential,
)
from .qseries import (
    QSeries,
    coefficient,
    divisor_series,
    divisor_series_even,
    divisor_series_odd,
    f0_series,
    f1_series,
    f2_series,
    f_series,
)

__version__ = "0.1.0"

__all__ = [
    "Basis2",
    "HnfLattice",
    "det",
    "hnf_reduce",
    "enumerate_sublattices",
    "sigma1",
    "OrbiPoint",
    "classify_images",
    "translate_action",
    "correlator",
    "correlator_series",
    "total_count_series",
    "QSeries",
    "coefficient",
    "f_series",
    "f0_series",
    "f1_series",
    "f2_series",
    "divisor_series",
    "divisor_series_odd",
    "divisor_series_even",
    "Monomial",
    "Potential",
    "assemble_potential",
    "st_reference_potential",
    "compare_potentials",
]
