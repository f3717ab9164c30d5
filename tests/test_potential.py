from __future__ import annotations

from fractions import Fraction

import pytest

from pillowcase import potential as pot
from pillowcase.potential import (
    Monomial,
    Potential,
    assemble_potential,
    compare_potentials,
    potential_from_json,
    potential_pretty,
    potential_to_json,
    st_reference_potential,
)
from pillowcase.qseries import QSeries

F = Fraction


def _mono(*exps: int) -> Monomial:
    return Monomial(tuple(exps))


def test_assembled_matches_reference():
    assert compare_potentials(assemble_potential(12), st_reference_potential(12)) == []


def test_assembled_constants():
    p = assemble_potential(8)
    assert p.log_term == F(1, 2)
    for j in range(1, 5):
        exps = [0] * 5
        exps[0], exps[j] = 1, 2
        assert p.terms[Monomial(tuple(exps))].coeffs == (F(1, 4),) + (F(0),) * 8
    for j in range(1, 5):
        exps = [0] * 5
        exps[j] = 4
        assert p.terms[Monomial(tuple(exps))].coeffs[0] == F(-1, 96)


def test_pair_coefficient_from_both_pipelines():
    # both constructions put 1/2 on t1^2 t2^2 at q^2
    mono = _mono(0, 2, 2, 0, 0)
    assert assemble_potential(4).terms[mono].coeffs[2] == F(1, 2)
    assert st_reference_potential(4).terms[mono].coeffs[2] == F(1, 2)


def test_unsupported_quartics_are_absent():
    p = assemble_potential(10)
    assert _mono(0, 3, 1, 0, 0) not in p.terms
    assert _mono(0, 2, 1, 1, 0) not in p.terms
    for mono in p.terms:
        e = mono.exponents
        assert sum(e) in (3, 4)
        assert e[0] in (0, 1)


def test_symmetric_families_share_series():
    p = assemble_potential(16)
    quartics = [p.terms[_mono(0, *(4 * (i == j) for j in range(4)))] for i in range(4)]
    assert len(set(quartics)) == 1
    pairs = []
    for i in range(1, 5):
        for j in range(i + 1, 5):
            exps = [0] * 5
            exps[i], exps[j] = 2, 2
            pairs.append(p.terms[Monomial(tuple(exps))])
    assert len(set(pairs)) == 1


def test_compare_requires_matching_truncation():
    with pytest.raises(ValueError):
        compare_potentials(assemble_potential(4), st_reference_potential(5))


def _perturb(p: Potential, mono: Monomial, degree: int) -> Potential:
    coeffs = list(p.terms[mono].coeffs)
    coeffs[degree] += 1
    terms = dict(p.terms)
    terms[mono] = QSeries(tuple(coeffs))
    return Potential(p.log_term, terms, p.trunc)


def test_single_perturbation_yields_single_diff():
    a = assemble_potential(6)
    mono = _mono(0, 1, 1, 1, 1)
    b = _perturb(st_reference_potential(6), mono, 3)
    diffs = compare_potentials(a, b)
    assert len(diffs) == 1
    assert diffs[0].monomial == mono
    assert diffs[0].degree == 3
    assert diffs[0].rhs - diffs[0].lhs == 1


def test_log_term_mismatch_reported():
    a = st_reference_potential(3)
    b = Potential(F(1, 3), a.terms, a.trunc)
    diffs = compare_potentials(a, b)
    assert len(diffs) == 1
    assert diffs[0].monomial is None and diffs[0].degree is None


def test_potential_validation():
    with pytest.raises(ValueError):
        assemble_potential(0)
    with pytest.raises(ValueError):
        st_reference_potential(0)
    with pytest.raises(ValueError):
        Monomial((1, 2, 3))
    with pytest.raises(ValueError):
        Monomial((0, -1, 0, 0, 0))
    with pytest.raises(ValueError):
        Monomial((0, True, 1, 1, 1))
    with pytest.raises(ValueError):
        Monomial((0, 1.0, 1, 1, 1))
    with pytest.raises(ValueError):
        Potential(F(1), {_mono(0, 4, 0, 0, 0): QSeries((F(1), F(1)))}, 5)


@pytest.mark.parametrize("log_term", [0.5, True, False])
def test_potential_refuses_inexact_log_term(log_term):
    with pytest.raises(TypeError):
        Potential(log_term, {}, 1)


@pytest.mark.parametrize("log_term", [1, F(1, 2), "1/2"])
def test_potential_converts_exact_log_term(log_term):
    p = Potential(log_term, {}, 1)
    assert type(p.log_term) is Fraction
    assert p.log_term == F(log_term)



def test_monomial_str():
    assert str(_mono(1, 2, 0, 0, 0)) == "t0*t1^2"
    assert str(_mono(0, 1, 1, 1, 1)) == "t1*t2*t3*t4"
    assert str(_mono(0, 0, 0, 0, 0)) == "1"


def test_json_round_trip():
    p = assemble_potential(7)
    blob = potential_to_json(p)
    assert blob["log_term"] == "1/2"
    assert potential_from_json(blob) == p


def test_json_rejects_inexact_input():
    blob = potential_to_json(assemble_potential(2))
    with pytest.raises(ValueError):
        potential_from_json({**blob, "log_term": 0.5})
    entry = {**blob["terms"][0], "monomial": [0, True, 1.0, 1, 1]}
    with pytest.raises(ValueError):
        potential_from_json({**blob, "terms": [entry]})


def test_pretty_groups_families():
    text = potential_pretty(assemble_potential(8))
    assert text.splitlines()[0] == "F = (1/2)*t0^2*log q"
    assert "t1*t2*t3*t4" in text
    assert "t1^4 + t2^4 + t3^4 + t4^4" in text
