"""Genus-zero potential of the pillowcase, assembled and in closed form.

The potential is a formal function of t_0 (the unit class), t_1..t_4 (the
four corner twist classes) and q, of the shape

    F = 1/2 t_0^2 log q  +  1/4 t_0 (t_1^2 + ... + t_4^2)  +  quartic terms,

where each quartic monomial in t_1..t_4 carries a q-series.  Two
constructions are provided:

* :func:`assemble_potential` sums three-point constants and the enumerative
  four-point counts of :mod:`.orbi` with their symmetry factors;
* :func:`st_reference_potential` writes the known closed form directly in
  terms of the series f0, f1, f2.

:func:`compare_potentials` diffs the two coefficient by coefficient.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod
from types import MappingProxyType

from . import orbi, qseries
from .lattice import _need_int, _Value
from .orbi import OrbiPoint
from .qseries import QSeries, _ratio


class Monomial(_Value, order=True):
    """Exponents (e0, e1, e2, e3, e4) of t_0^e0 t_1^e1 ... t_4^e4."""

    exponents: tuple[int, int, int, int, int]

    def __init__(self, exponents: tuple[int, int, int, int, int]) -> None:
        if type(exponents) is not tuple or len(exponents) != 5:
            raise ValueError(f"need a tuple of 5 exponents, got {exponents!r}")
        for e in exponents:
            _need_int("exponent", e, 0)
        self.__dict__["exponents"] = exponents

    def __str__(self) -> str:
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"t{i}")
            elif e > 1:
                parts.append(f"t{i}^{e}")
        return "*".join(parts) if parts else "1"


class Potential(_Value):
    """log_term * t_0^2 log q plus a read-only, sorted map of monomials to series.

    Identically zero series are dropped at construction, so two potentials
    are equal exactly when they print the same terms.
    """

    log_term: Fraction
    terms: Mapping[Monomial, QSeries]
    trunc: int

    def __init__(self, log_term: Fraction, terms: Mapping[Monomial, QSeries], trunc: int) -> None:
        _need_int("trunc", trunc, 0)
        for mono, series in terms.items():
            if type(mono) is not Monomial or type(series) is not QSeries:
                raise TypeError(f"a term maps a Monomial to a QSeries, got {mono!r}: {series!r}")
            if series.trunc != trunc:
                raise ValueError(
                    f"series truncation {series.trunc} does not match potential {trunc}"
                )
        blank = qseries.zero_series(trunc)
        kept = {mono: series for mono, series in sorted(terms.items()) if series != blank}
        log_term = Fraction(*_ratio(log_term))
        self.__dict__.update(log_term=log_term, terms=MappingProxyType(kept), trunc=trunc)

    def __hash__(self) -> int:
        # The shared field-value hash would hash the mapping proxy, which cannot be hashed.
        return hash((self.log_term, tuple(self.terms.items()), self.trunc))

    def __reduce__(self):
        # A mapping proxy cannot be pickled; rebuild from a plain dict.
        return Potential, (self.log_term, dict(self.terms), self.trunc)


def _monomial(*indices: int) -> Monomial:
    # The product of t_i over the listed indices: t0*tj^2 is _monomial(0, j, j).
    return Monomial(tuple(indices.count(i) for i in range(5)))


def assemble_potential(trunc: int) -> Potential:
    """Potential built from the counts themselves.

    Degree-two and -three data: the unit pairing contributes 1/2 t_0^2 log q
    (three orderings over 3!), and each constant-map pairing <1, D_j, D_j>
    equals 1/2, contributing 1/4 t_0 t_j^2.  Quartic data: the monomial with
    exponents e_1..e_4 receives the matching four-point count series divided
    by e_1! ... e_4!, plus a degree-zero constant -1/4 inside the bracket of
    each t_j^4 (the constant-map quartic term), which lands as -1/96 on the
    monomial.
    """
    _need_int("trunc", trunc, 1)
    terms: dict[Monomial, QSeries] = {}
    pair_constant = Fraction(3, factorial(3)) * Fraction(1, 2)  # = 1/4
    for j in range(1, 5):
        terms[_monomial(0, j, j)] = qseries.constant_series(pair_constant, trunc)
    for ins in combinations_with_replacement(tuple(OrbiPoint), 4):
        mono = _monomial(*ins)
        weight = Fraction(1, prod(map(factorial, mono.exponents[1:])))
        series = orbi.correlator_series(ins, trunc)
        if len(set(ins)) == 1:
            series = qseries.add(series, qseries.constant_series(Fraction(-1, 4), trunc))
        terms[mono] = qseries.scale(series, weight)
    return Potential(Fraction(3, factorial(3)), terms, trunc)


def st_reference_potential(trunc: int) -> Potential:
    """The closed form: f0 on t1*t2*t3*t4, f1/4 on each t_j^4, f2/6 on pairs."""
    _need_int("trunc", trunc, 1)
    terms = {_monomial(1, 2, 3, 4): qseries.f0_series(trunc)}
    quarter_f1 = qseries.scale(qseries.f1_series(trunc), Fraction(1, 4))
    sixth_f2 = qseries.scale(qseries.f2_series(trunc), Fraction(1, 6))
    for j in range(1, 5):
        terms[_monomial(0, j, j)] = qseries.constant_series(Fraction(1, 4), trunc)
        terms[_monomial(j, j, j, j)] = quarter_f1
        for i in range(1, j):
            terms[_monomial(i, i, j, j)] = sixth_f2
    return Potential(Fraction(1, 2), terms, trunc)


class PotentialDiff(_Value):
    """One coefficient discrepancy; monomial None flags the log term."""

    monomial: Monomial | None
    degree: int | None
    lhs: Fraction
    rhs: Fraction

    def __init__(self, monomial: Monomial | None, degree: int | None, lhs: Fraction, rhs: Fraction):
        self.__dict__.update(monomial=monomial, degree=degree, lhs=lhs, rhs=rhs)


def compare_potentials(a: Potential, b: Potential) -> list[PotentialDiff]:
    """All coefficient discrepancies between two potentials; empty means equal.

    Truncations must match; comparing different windows is an error, not a
    partial diff.
    """
    if a.trunc != b.trunc:
        raise ValueError(f"truncation mismatch: {a.trunc} vs {b.trunc}")
    diffs: list[PotentialDiff] = []
    if a.log_term != b.log_term:
        diffs.append(PotentialDiff(None, None, a.log_term, b.log_term))
    blank = qseries.zero_series(a.trunc)
    for mono in sorted(set(a.terms) | set(b.terms)):
        sa = a.terms.get(mono, blank)
        sb = b.terms.get(mono, blank)
        if sa != sb:
            for deg, (ca, cb) in enumerate(zip(sa.coeffs, sb.coeffs)):
                if ca != cb:
                    diffs.append(PotentialDiff(mono, deg, ca, cb))
    return diffs


# ---------------------------------------------------------------------------
# presentation and serialization
# ---------------------------------------------------------------------------


_PRETTY_MAX_TERMS = 4  # nonzero coefficients shown per series before "..."


def _series_head(coeffs: list[str]) -> str:
    shown = []
    for i, c in enumerate(coeffs):
        if c == "0":
            continue
        q = "q" if i == 1 else f"q^{i}"
        shown.append(c if i == 0 else q if c == "1" else f"{c}*{q}")
        if len(shown) == _PRETTY_MAX_TERMS:
            shown.append("...")
            break
    return " + ".join(shown) if shown else "0"


def potential_pretty(p: Potential) -> str:
    """Group monomials sharing a series, one bracketed series per family, highest first."""
    lines = [f"F = ({p.log_term})*t0^2*log q"]
    families: dict[QSeries, list[Monomial]] = {}
    for mono, series in reversed(p.terms.items()):
        families.setdefault(series, []).append(mono)
    for series, monos in families.items():
        head = _series_head(qseries.to_json(series)["coeffs"])
        lines.append(f"  + ({' + '.join(map(str, monos))}) * [{head}]")
    return "\n".join(lines)


def potential_to_json(p: Potential) -> dict:
    return {
        "log_term": str(p.log_term),
        "terms": [
            {"monomial": list(mono.exponents), "series": qseries.to_json(series)}
            for mono, series in p.terms.items()
        ],
    }
