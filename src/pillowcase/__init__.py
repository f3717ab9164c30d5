"""Exact counts of holomorphic orbi-spheres on the pillowcase orbifold.

The package enumerates finite-index sublattices of the square lattice in
Hermite normal form, classifies the corner images of the associated covers,
counts four-point configurations, and assembles the genus-zero potential,
all in exact rational arithmetic.  Brute-force cross-checks live in
:mod:`pillowcase.oracle`; a command-line front end in :mod:`pillowcase.cli`.
Each public name is loaded from its module on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each home module -> the public names it defines.  A name's module is
# imported the first time the name is read (PEP 562), so `import pillowcase`
# itself loads no submodule.
_EXPORTS = {
    "lattice": ("Basis2", "HnfLattice", "det", "hnf_reduce", "enumerate_sublattices", "sigma1"),
    "orbi": (
        "OrbiPoint",
        "classify_images",
        "translate_action",
        "correlator",
        "correlator_series",
        "total_count_series",
    ),
    "qseries": (
        "QSeries",
        "coefficient",
        "f_series",
        "f0_series",
        "f1_series",
        "f2_series",
        "divisor_series",
        "divisor_series_odd",
        "divisor_series_even",
    ),
    "potential": (
        "Monomial",
        "Potential",
        "assemble_potential",
        "st_reference_potential",
        "compare_potentials",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOMES[name]}", __name__), name)
