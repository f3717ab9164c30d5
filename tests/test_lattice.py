from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pillowcase.lattice import (
    Basis2,
    HnfLattice,
    det,
    divisors,
    enumerate_sublattices,
    hnf_reduce,
    sigma1,
)

# Brute-force membership: a point lies in the span iff Cramer's rule gives
# integer coordinates.  This is the reference against which hnf_reduce is
# judged; it never touches the reduction code.


def _member(basis: Basis2, point: tuple[int, int]) -> bool:
    (ax, ay), (bx, by) = basis.v1, basis.v2
    d = ax * by - ay * bx
    px, py = point
    return (px * by - py * bx) % d == 0 and (ax * py - ay * px) % d == 0


def _same_points(b1: Basis2, b2: Basis2, window: int) -> bool:
    for x in range(-window, window + 1):
        for y in range(-window, window + 1):
            if _member(b1, (x, y)) != _member(b2, (x, y)):
                return False
    return True


# ---------------------------------------------------------------------------
# determinants and reduction
# ---------------------------------------------------------------------------


def test_det_values():
    assert det(Basis2((2, 1), (0, 1))) == 2
    assert det(Basis2((4, 0), (3, 2))) == 8
    assert det(Basis2((1, 0), (0, 1))) == 1
    assert det(Basis2((0, -1), (3, 1))) == 3


def test_hnf_reduce_membership_checked():
    # Frozen from the membership oracle above: (2,1),(0,1) spans the even-x
    # lattice and (0,-1),(3,1) the multiples-of-3-x lattice.
    b = Basis2((2, 1), (0, 1))
    lat = hnf_reduce(b)
    assert lat == HnfLattice(2, 0, 1)
    assert _same_points(b, lat.basis(), 8)

    b = Basis2((0, -1), (3, 1))
    lat = hnf_reduce(b)
    assert lat == HnfLattice(3, 0, 1)
    assert _same_points(b, lat.basis(), 9)


def test_hnf_reduce_rejects_nonpositive_determinant():
    with pytest.raises(ValueError):
        hnf_reduce(Basis2((1, 0), (2, 0)))  # determinant 0
    with pytest.raises(ValueError):
        hnf_reduce(Basis2((0, 1), (1, 0)))  # determinant -1


def test_hnf_reduce_zero_beta_column():
    # beta = 0 forces g = |delta|, and a negative delta still lands in 0 <= m < h
    assert hnf_reduce(Basis2((3, 0), (1, 2))) == HnfLattice(3, 1, 2)
    assert hnf_reduce(Basis2((-3, 0), (1, -2))) == HnfLattice(3, 2, 2)


@given(
    st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)
)
def test_hnf_reduce_canonical_and_span_preserving(a, b, c, d):
    assume(a * d - b * c > 0)
    basis = Basis2((a, b), (c, d))
    lat = hnf_reduce(basis)
    assert lat.d == a * d - b * c
    assert 0 <= lat.m < lat.h
    assert _same_points(basis, lat.basis(), 10)


def test_hnf_reduce_idempotent_on_canonical_bases():
    for d in range(1, 41):
        for lat in enumerate_sublattices(d):
            assert hnf_reduce(lat.basis()) == lat


def test_hnf_reduce_exhaustive_small_entries():
    # Every positively oriented basis with entries in [-4, 4], delta' = 0 and
    # negative delta' included: the reduced triple is the one index-d triple
    # whose basis vectors lie in the span, by brute-force membership.
    by_index = {n: enumerate_sublattices(n) for n in range(1, 33)}  # |det| <= 2*4*4
    for a, b, c, d in product(range(-4, 5), repeat=4):
        n = a * d - b * c
        if n <= 0:
            continue
        basis = Basis2((a, b), (c, d))
        inside = [
            lat
            for lat in by_index[n]
            if _member(basis, (lat.h, 0)) and _member(basis, (lat.m, lat.g))
        ]
        assert len(inside) == 1
        lat = hnf_reduce(basis)
        assert lat == inside[0]
        assert hnf_reduce(lat.basis()) == lat


def test_equal_triples_exactly_when_same_span():
    # Two bases span the same sublattice exactly when they reduce alike.
    assert hnf_reduce(Basis2((2, 0), (0, 1))) == hnf_reduce(Basis2((2, 0), (2, 1)))
    assert hnf_reduce(Basis2((2, 0), (0, 1))) != hnf_reduce(Basis2((2, 0), (1, 1)))
    assert hnf_reduce(Basis2((1, 0), (0, 1))) == hnf_reduce(Basis2((0, -1), (1, 0)))


def _recombine(basis: Basis2, word) -> Basis2:
    # Right-multiply the basis matrix by a word in the standard unimodular
    # generators; the span never changes.
    moves = {
        "S": ((0, -1), (1, 0)),
        "s": ((0, 1), (-1, 0)),
        "T": ((1, 1), (0, 1)),
        "t": ((1, -1), (0, 1)),
    }
    v1, v2 = basis.v1, basis.v2
    for letter in word:
        (p, q), (r, s) = moves[letter]
        v1, v2 = (
            (p * v1[0] + r * v2[0], p * v1[1] + r * v2[1]),
            (q * v1[0] + s * v2[0], q * v1[1] + s * v2[1]),
        )
    return Basis2(v1, v2)


def test_hnf_reduce_recovers_after_unimodular_words():
    rng = random.Random(20260822)
    letters = "SsTt"
    for d in range(1, 13):
        for lat in enumerate_sublattices(d):
            for _ in range(4):
                word = "".join(rng.choice(letters) for _ in range(rng.randint(1, 8)))
                scrambled = _recombine(lat.basis(), word)
                assert det(scrambled) == d
                assert hnf_reduce(scrambled) == lat


# ---------------------------------------------------------------------------
# enumeration and counting
# ---------------------------------------------------------------------------


def test_enumerate_d2_exact():
    assert enumerate_sublattices(2) == [
        HnfLattice(1, 0, 2),
        HnfLattice(2, 0, 1),
        HnfLattice(2, 1, 1),
    ]


def test_enumerate_is_lexicographic_and_valid():
    for d in (1, 6, 12, 36):
        lats = enumerate_sublattices(d)
        assert lats == sorted(lats, key=lambda l: (l.h, l.m))
        assert len(set(lats)) == len(lats)
        for lat in lats:
            assert lat.d == d


def test_enumerate_count_is_sigma1():
    for d in range(1, 61):
        assert len(enumerate_sublattices(d)) == sigma1(d)


def test_enumerate_rejects_nonpositive():
    with pytest.raises(ValueError):
        enumerate_sublattices(0)
    with pytest.raises(ValueError):
        sigma1(0)
    with pytest.raises(ValueError):
        divisors(-3)


def test_sigma1_small_values():
    assert [sigma1(d) for d in range(1, 9)] == [1, 3, 4, 7, 6, 12, 8, 15]


def test_hnf_lattice_validation():
    with pytest.raises(ValueError):
        HnfLattice(0, 0, 1)
    with pytest.raises(ValueError):
        HnfLattice(2, 2, 1)
    with pytest.raises(ValueError):
        HnfLattice(2, -1, 1)
    with pytest.raises(ValueError):
        HnfLattice(2, 0, 0)


def test_hnf_lattice_json_round_trip():
    lat = HnfLattice(4, 3, 2)
    assert HnfLattice.from_json(lat.to_json()) == lat
    with pytest.raises(ValueError):
        HnfLattice.from_json({"h": 4, "m": 3, "g": 2, "d": 9})


@pytest.mark.parametrize(
    "obj",
    [
        {"h": 2, "m": 1, "g": 2.9},
        {"h": 2, "m": 1, "g": 2.0},
        {"h": True, "m": 0, "g": 1},
        {"h": "3", "m": 1, "g": 1},
        {"h": 2, "m": None, "g": 1},
        {"h": 2, "g": 1},
        {"h": 2, "m": 1, "g": 1, "d": "2"},
        {"h": 2, "m": 1, "g": 1, "d": 2.0},
    ],
)
def test_hnf_lattice_from_json_refuses_non_integer_fields(obj):
    with pytest.raises(ValueError):
        HnfLattice.from_json(obj)
