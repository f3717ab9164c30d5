from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest

from pillowcase import orbi
from pillowcase.lattice import HnfLattice, enumerate_sublattices, sigma1
from pillowcase.orbi import (
    OrbiPoint,
    classify_images,
    correlator,
    correlator_series,
    total_count_series,
    translate_action,
)
from pillowcase.qseries import (
    QSeries,
    add,
    constant_series,
    divisor_series,
    divisor_series_even,
    divisor_series_odd,
    f_series,
    scale,
    sub,
    substitute_power,
)

X1, X2, X3, X4 = OrbiPoint

# ---------------------------------------------------------------------------
# corner classification
# ---------------------------------------------------------------------------


def test_classify_images_spot_values():
    assert classify_images(HnfLattice(1, 0, 1)) == (X2, X3, X4)
    assert classify_images(HnfLattice(2, 0, 2)) == (X1, X1, X1)
    assert classify_images(HnfLattice(2, 1, 2)) == (X1, X2, X2)


def test_classify_images_is_the_coset_formula():
    # X2 -> (h, 0), X3 -> (h+m, g), X4 -> (m, g), each mod 2, written out here
    # independently of the table classify_images reads.
    point = {(0, 0): X1, (1, 0): X2, (1, 1): X3, (0, 1): X4}
    for h in range(1, 9):
        for g in range(1, 9):
            for m in range(h):
                expected = (point[h % 2, 0], point[(h + m) % 2, g % 2], point[m % 2, g % 2])
                assert classify_images(HnfLattice(h, m, g)) == expected, (h, m, g)


def test_census_classifies_each_enumerated_lattice_once(monkeypatch):
    # One classification per lattice until the census counts parity classes;
    # a wrapped classifier is a new memo key, so the census is built cold.
    calls = []

    def counted(lat):
        calls.append(lat)
        return classify_images(lat)

    monkeypatch.setattr(orbi, "classify_images", counted)
    assert correlator((1, 2, 3, 4), 12) == 0
    assert len(calls) == sigma1(12) == 28
    assert calls == enumerate_sublattices(12)


def test_classify_images_depends_only_on_parities():
    for h, m, g in [(1, 0, 1), (2, 1, 2), (4, 1, 3), (3, 2, 2)]:
        small = classify_images(HnfLattice(h, m, g))
        big = classify_images(HnfLattice(h + 4, m, g + 6))
        assert small == big


def test_translate_action_values():
    assert translate_action("half")[X1] == X2
    assert translate_action("half_plus")[X2] == X4
    assert translate_action("half_i")[X4] == X1


def test_translate_actions_form_klein_four_group():
    actions = {name: translate_action(name) for name in ("half", "half_plus", "half_i")}
    for action in actions.values():
        for p in OrbiPoint:
            assert action[action[p]] == p  # involution
    composed = {p: actions["half"][actions["half_plus"][p]] for p in OrbiPoint}
    assert composed == actions["half_i"]


def test_translate_action_unknown_name():
    with pytest.raises(ValueError):
        translate_action("whole")


def test_translate_action_returns_a_fresh_dict():
    # The rows are shared with the X1-first normalisation; a caller that
    # edits its copy must not reach them.
    action = translate_action("half")
    expected = dict(action)
    action.update({p: X1 for p in OrbiPoint})
    assert translate_action("half") == expected
    assert translate_action("half") is not translate_action("half")
    assert correlator((2, 2, 3, 3), 6) == 8


# ---------------------------------------------------------------------------
# four-point counts
# ---------------------------------------------------------------------------


def test_correlator_spot_values():
    assert correlator((X1, X2, X3, X4), 3) == 4
    assert correlator((X1, X1, X1, X1), 4) == 6
    assert correlator((X1, X1, X4, X4), 2) == 2
    assert correlator((X1, X2, X3, X4), 2) == 0
    assert correlator((X1, X1, X2, X3), 2) == 0


def test_correlator_series_translated_pair():
    assert correlator_series((X2, X2, X3, X3), 2).coeffs == (
        Fraction(0),
        Fraction(0),
        Fraction(2),
    )


def test_correlator_input_validation():
    with pytest.raises(ValueError):
        correlator((X1, X2, X3, X4), 0)
    with pytest.raises(ValueError):
        correlator((X1, X2, X3), 1)
    with pytest.raises(ValueError):
        correlator_series((X1, X2, X3, X4), 0)
    # True equals X1 and 4.0 equals X4, but neither is a corner label.
    for ins in ((0, 2, 3, 4), (True, 2, 3, 4), (1, 2, 3, 4.0), (X1, X2, X3, False)):
        with pytest.raises(ValueError):
            correlator(ins, 3)
        with pytest.raises(ValueError):
            correlator_series(ins, 3)


def test_insertion_fast_path_keeps_the_integer_rule():
    # A tuple of OrbiPoints is taken as is; equal-but-wrong inputs are not.
    assert correlator((X1, X2, X3, X4), 6) == 0  # the d = 6 census is built
    for corners, count in (((1, 2, 3, 4), 0), ((2, 2, 3, 3), 8), ((1, 4, 1, 4), 8)):
        spellings = (
            corners,
            list(corners),
            tuple(OrbiPoint(c) for c in corners),
            (c for c in corners),
        )
        assert [correlator(ins, 6) for ins in spellings] == [count] * 4
    for ins in ((True, 2, 3, 4), (1, 2, 3, 4.0), (X1, X2, X3, False)):
        with pytest.raises(ValueError):
            correlator(ins, 6)


@pytest.mark.parametrize("d", [True, 1.0])
def test_correlator_refuses_non_integer_degree(d):
    assert correlator((X1, X2, X3, X4), 1) == 1  # the d = 1 census is built
    with pytest.raises(ValueError):
        correlator((X1, X2, X3, X4), d)


@pytest.fixture(scope="module")
def count_table():
    # every ordered insertion tuple at every degree up to 30
    points = tuple(OrbiPoint)
    return {
        (ins, d): correlator(ins, d)
        for d in range(1, 31)
        for ins in product(points, repeat=4)
    }


def test_correlator_symmetric_under_reordering(count_table):
    for (ins, d), value in count_table.items():
        for perm in permutations(range(4)):
            reordered = tuple(ins[i] for i in perm)
            assert count_table[(reordered, d)] == value


def test_correlator_invariant_under_translations(count_table):
    actions = [translate_action(name) for name in ("half", "half_plus", "half_i")]
    for (ins, d), value in count_table.items():
        for action in actions:
            moved = tuple(action[p] for p in ins)
            assert count_table[(moved, d)] == value


def test_correlator_support(count_table):
    # nonzero only for: four distinct corners at odd degree, a corner pair
    # of pairs at even degree, or one corner four times at degree 0 mod 4
    for (ins, d), value in count_table.items():
        if value == 0:
            continue
        shape = sorted(ins.count(p) for p in set(ins))
        if shape == [1, 1, 1, 1]:
            assert d % 2 == 1
        elif shape == [2, 2]:
            assert d % 2 == 0
        elif shape == [4]:
            assert d % 4 == 0
        else:
            pytest.fail(f"unexpected support at {ins}, d={d}")


def test_census_count_matches_per_lattice_count():
    # the loop the per-degree census replaced: every sublattice, every
    # reordering of the free corners, matched position by position
    for d in range(1, 25):
        lattices = enumerate_sublattices(d)
        for rest in product(tuple(OrbiPoint), repeat=3):
            expected = 0
            for lat in lattices:
                img = classify_images(lat)
                for tau in permutations((2, 3, 4)):
                    if tuple(img[t - 2] for t in tau) == rest:
                        expected += 1
            assert correlator((X1,) + rest, d) == expected, (rest, d)


def test_partition_identity():
    # the ordered counts starting at X1 split the six covers per sublattice
    points = tuple(OrbiPoint)
    for d in range(1, 101):
        split = sum(correlator((X1,) + rest, d) for rest in product(points, repeat=3))
        assert split == 6 * sigma1(d)


# ---------------------------------------------------------------------------
# closed forms and the total count
# ---------------------------------------------------------------------------


def test_distinct_corner_series_is_odd_divisor_sum():
    n = 40
    assert correlator_series((X1, X2, X3, X4), n) == divisor_series_odd(n)
    # every count series equals the one the public constructor builds from the same counts
    classes = list(combinations_with_replacement(OrbiPoint, 4))
    assert len(classes) == 35
    for ins in classes:
        built = QSeries((0,) + tuple(correlator(ins, d) for d in range(1, n + 1)))
        series = correlator_series(ins, n)
        assert series == built and hash(series) == hash(built)
    built = QSeries((0,) + tuple(sum(orbi._cover_census(d).values()) for d in range(1, n + 1)))
    total = total_count_series(n)
    assert total == built and hash(total) == hash(built)


def test_single_corner_series_is_six_fold_quartered_divisor_sum():
    n = 40
    expected = scale(substitute_power(divisor_series(n), 4), 6)
    for p in OrbiPoint:
        assert correlator_series((p, p, p, p), n) == expected


def test_corner_pair_series_closed_form():
    n = 40
    expected = scale(
        sub(divisor_series_even(n), substitute_power(divisor_series(n), 4)),
        Fraction(2, 3),
    )
    for i, j in [(a, b) for a in OrbiPoint for b in OrbiPoint if a < b]:
        assert correlator_series((i, i, j, j), n) == expected


def test_total_count_series_values():
    assert total_count_series(2).coeffs == (Fraction(0), Fraction(6), Fraction(18))
    assert total_count_series(6).coeffs[6] == 72


def test_total_count_series_is_six_times_divisor_generating_function():
    n = 60
    corrected = add(f_series(n), constant_series(Fraction(1, 24), n))
    assert total_count_series(n) == scale(corrected, 6)
    with pytest.raises(ValueError):
        total_count_series(0)
