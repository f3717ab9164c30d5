from __future__ import annotations

import pytest

from pillowcase import oracle, orbi
from pillowcase.lattice import sigma1
from pillowcase.oracle import (
    INSERTION_PARITY_TABLE,
    correlator_crosscheck,
    image_table_check,
    lumpsum_check,
    orbit_agreement_check,
    rh_uniqueness_check,
    sl2_orbit_count,
)
from pillowcase.orbi import OrbiPoint

X1, X2, X3, X4 = OrbiPoint


# ---------------------------------------------------------------------------
# matrix orbit census
# ---------------------------------------------------------------------------


def test_sl2_orbit_count_spot_values():
    assert sl2_orbit_count(1) == 1
    assert sl2_orbit_count(7) == 8
    assert sl2_orbit_count(9) == 13


def test_sl2_orbit_count_matches_divisor_sum():
    for d in range(1, 9):
        assert sl2_orbit_count(d) == sigma1(d)


def test_sl2_orbit_count_range():
    with pytest.raises(ValueError):
        sl2_orbit_count(0)
    with pytest.raises(ValueError):
        sl2_orbit_count(oracle.SL2_EXHAUSTIVE_MAX + 1)


def test_orbit_agreement_check():
    result = orbit_agreement_check(8)
    assert result.ok
    with pytest.raises(ValueError):
        orbit_agreement_check(13)


# ---------------------------------------------------------------------------
# corner classification
# ---------------------------------------------------------------------------


def test_parity_table_has_all_eight_cases():
    assert sorted(INSERTION_PARITY_TABLE) == [
        (g, h, m) for g in (0, 1) for h in (0, 1) for m in (0, 1)
    ]
    # odd-index covers hit three distinct corners, even-index ones never do
    for (g, h, m), images in INSERTION_PARITY_TABLE.items():
        if g == h == 1:
            assert sorted(images) == [X2, X3, X4]
        else:
            assert len(set(images)) <= 2


def test_image_table_check_passes():
    result = image_table_check(30)
    assert result.ok
    assert result.details["lattices"] == sum(sigma1(d) for d in range(1, 31))


def test_image_table_check_rejects_bad_range():
    with pytest.raises(ValueError):
        image_table_check(0)


def _swap_x3_x4(images):
    swap = {X3: X4, X4: X3}
    return tuple(swap.get(p, p) for p in images)


def test_image_table_check_catches_swapped_table(monkeypatch):
    bad = {key: _swap_x3_x4(images) for key, images in INSERTION_PARITY_TABLE.items()}
    monkeypatch.setattr(oracle, "INSERTION_PARITY_TABLE", bad)
    result = image_table_check(10)
    assert not result.ok
    assert result.counterexample["d"] == 1


# ---------------------------------------------------------------------------
# closed forms and the lump sum
# ---------------------------------------------------------------------------


def test_correlator_crosscheck_passes():
    result = correlator_crosscheck(20)
    assert result.ok
    assert result.details["classes_checked"] == 35 * 20


def test_crosscheck_catches_dropped_reordering(monkeypatch):
    kept = tuple(t for t in orbi.MARKING_PERMUTATIONS if t != (2, 4, 3))
    monkeypatch.setattr(orbi, "MARKING_PERMUTATIONS", kept)
    result = correlator_crosscheck(6)
    assert not result.ok
    assert result.counterexample["d"] <= 3


def test_lumpsum_check_passes():
    assert lumpsum_check(40).ok


def test_lumpsum_catches_dropped_reordering(monkeypatch):
    kept = tuple(t for t in orbi.MARKING_PERMUTATIONS if t != (2, 4, 3))
    monkeypatch.setattr(orbi, "MARKING_PERMUTATIONS", kept)
    result = lumpsum_check(5)
    assert not result.ok
    assert result.counterexample["d"] == 1


def test_check_range_validation():
    for check in (correlator_crosscheck, lumpsum_check):
        with pytest.raises(ValueError):
            check(0)


# ---------------------------------------------------------------------------
# branching data census
# ---------------------------------------------------------------------------


def test_rh_uniqueness_small_degrees():
    for d in range(1, 7):
        result = rh_uniqueness_check(d)
        assert result.ok
        assert result.details["solutions"] > 0


def test_rh_solution_counts():
    # odd degree forces a bijective corner assignment: 24 profiles; even
    # degree pairs the marked points over two corners: 36 profiles
    assert rh_uniqueness_check(1).details["solutions"] == 24
    assert rh_uniqueness_check(2).details["solutions"] == 36


def test_rh_range():
    with pytest.raises(ValueError):
        rh_uniqueness_check(0)
    with pytest.raises(ValueError):
        rh_uniqueness_check(oracle.RH_EXHAUSTIVE_MAX + 1)
