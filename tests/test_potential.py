from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from pillowcase.potential import (
    Monomial,
    Potential,
    assemble_potential,
    compare_potentials,
    potential_pretty,
    st_reference_potential,
)
from pillowcase.qseries import QSeries, sub, zero_series

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


def test_matching_potentials_compare_without_reading_coeffs(monkeypatch):
    # Zero series are pruned and equal series skipped by value, so building
    # and comparing two matching potentials builds no Fraction tuple.
    def refuse(series):
        raise AssertionError("read QSeries.coeffs")

    monkeypatch.setattr(QSeries, "coeffs", property(refuse))
    assert compare_potentials(assemble_potential(40), st_reference_potential(40)) == []


def test_zero_series_are_dropped_by_value():
    kept = QSeries((0, F(1, 2), 0))
    terms = {
        _mono(0, 4, 0, 0, 0): QSeries((0, F(0), 0)),
        _mono(0, 0, 4, 0, 0): sub(kept, kept),
        _mono(0, 0, 0, 4, 0): kept,
    }
    assert Potential(F(1), terms, 2).terms == {_mono(0, 0, 0, 4, 0): kept}


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
    with pytest.raises(ValueError):  # a list cannot be hashed, so it cannot key a term
        Monomial([0, 0, 0, 0, 4])
    with pytest.raises(ValueError):
        Potential(F(1), {_mono(0, 4, 0, 0, 0): QSeries((F(1), F(1)))}, 5)
    with pytest.raises(ValueError):  # a zero series is checked before it is dropped
        Potential(F(1), {_mono(0, 4, 0, 0, 0): QSeries((0,) * 6)}, 3)


def _direct_potential() -> Potential:
    return Potential(F(1), {_mono(0, 0, 0, 0, 4): QSeries((1, 2, 3))}, 2)


@pytest.mark.parametrize(
    "build",
    [lambda: assemble_potential(4), lambda: st_reference_potential(4), _direct_potential],
    ids=["assembled", "reference", "direct"],
)
def test_terms_are_read_only(build):
    p = build()
    mono, series = next(iter(p.terms.items()))
    with pytest.raises(TypeError):
        p.terms[mono] = series
    with pytest.raises(TypeError):
        p.terms[_mono(0, 0, 0, 0, 1)] = zero_series(p.trunc)
    with pytest.raises(TypeError):
        del p.terms[mono]


@pytest.mark.parametrize(
    "terms",
    [
        {(0, 0, 0, 0, 4): QSeries((1, 2, 3))},
        {_mono(0, 0, 0, 0, 4): [1, 2, 3]},
    ],
    ids=["tuple-key", "list-value"],
)
def test_potential_refuses_bad_term_types(terms):
    with pytest.raises(TypeError):
        Potential(F(1), terms, 2)


def test_terms_are_ascending_whatever_the_input_order():
    monos = [_mono(0, 0, 0, 0, 4), _mono(0, 4, 0, 0, 0), _mono(0, 1, 1, 1, 1), _mono(2, 0, 0, 0, 0)]
    terms = {mono: QSeries((k, 1)) for k, mono in enumerate(monos, 1)}
    assert list(Potential(F(1), terms, 1).terms) == sorted(monos)
    for p in (assemble_potential(4), st_reference_potential(4)):
        assert list(p.terms) == sorted(p.terms)


@pytest.mark.parametrize(
    "roundtrip",
    [lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_potential_round_trips(roundtrip):
    for p in (assemble_potential(6), _direct_potential()):
        q = roundtrip(p)
        assert q == p and compare_potentials(q, p) == []
        assert list(q.terms) == list(p.terms)
        with pytest.raises(TypeError):
            q.terms[next(iter(q.terms))] = zero_series(q.trunc)


def test_equality_and_compare_cannot_be_made_to_disagree():
    # A write into `terms` after construction could make == see a difference
    # that compare_potentials misses, or slip in a series of another
    # truncation that zip would compare only in part; both writes are refused.
    a, b = st_reference_potential(4), st_reference_potential(4)
    with pytest.raises(TypeError):
        a.terms[_mono(0, 0, 0, 0, 1)] = zero_series(4)
    with pytest.raises(TypeError):
        a.terms[_mono(0, 0, 0, 0, 1)] = QSeries((1,) * 10)
    assert a == b and compare_potentials(a, b) == []
    with pytest.raises(ValueError):
        Potential(a.log_term, {**a.terms, _mono(0, 0, 0, 0, 1): QSeries((1,) * 10)}, 4)


def test_equal_potentials_hash_equal():
    # Three routes to one value: the enumeration, the closed form, and the
    # closed form's terms given in reverse order with an extra zero series.
    reference = st_reference_potential(6)
    rebuilt = Potential(
        reference.log_term,
        {_mono(0, 0, 0, 0, 1): zero_series(6), **dict(reversed(reference.terms.items()))},
        6,
    )
    equal = [assemble_potential(6), reference, rebuilt]
    assert len({hash(p) for p in equal}) == 1
    assert len(set(equal)) == 1
    shifted = Potential(reference.log_term + 1, reference.terms, 6)
    assert len({*equal, shifted}) == 2


@pytest.mark.parametrize("log_term", [0.5, True, False, "1/2"])
def test_potential_refuses_inexact_log_term(log_term):
    with pytest.raises(TypeError):
        Potential(log_term, {}, 1)


@pytest.mark.parametrize("log_term", [1, F(1, 2)])
def test_potential_converts_exact_log_term(log_term):
    p = Potential(log_term, {}, 1)
    assert type(p.log_term) is Fraction
    assert p.log_term == log_term


def test_monomial_str():
    assert str(_mono(1, 2, 0, 0, 0)) == "t0*t1^2"
    assert str(_mono(0, 1, 1, 1, 1)) == "t1*t2*t3*t4"
    assert str(_mono(0, 0, 0, 0, 0)) == "1"


def test_pretty_groups_families():
    text = potential_pretty(assemble_potential(8))
    assert text.splitlines()[0] == "F = (1/2)*t0^2*log q"
    assert "t1*t2*t3*t4" in text
    assert "t1^4 + t2^4 + t3^4 + t4^4" in text
