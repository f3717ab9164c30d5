from __future__ import annotations

import copy
import dataclasses
import pickle
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


@pytest.mark.parametrize(
    "v1, v2",
    [
        ((True, 0), (0, 2)),  # a bool is not read as 1
        ((2, 0), (0, 1.5)),
        ((2, 0), (0, 2.0)),
        ((2, 0, 7), (0, 1)),
        ((2, 0), (1,)),
        ([2, 0], (0, 1)),
    ],
)
def test_basis_refuses_non_integer_pairs(v1, v2):
    with pytest.raises(ValueError):
        Basis2(v1, v2)


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


def test_enumerated_lattices_behave_like_checked_ones():
    # What enumerate_sublattices returns must be indistinguishable from a
    # lattice built field by field: equality, order, hash, repr and copies.
    for d in range(1, 61):
        lats = enumerate_sublattices(d)
        checked = [HnfLattice(lat.h, lat.m, lat.g) for lat in lats]
        assert lats == checked
        assert sorted(lats) == sorted(checked) == lats
        for lat, ref in zip(lats, checked):
            assert type(lat) is HnfLattice
            assert hash(lat) == hash(ref)
            assert repr(lat) == repr(ref)
            assert lat.to_json() == ref.to_json()
            for twin in (pickle.loads(pickle.dumps(lat)), copy.copy(lat), copy.deepcopy(lat)):
                assert twin == ref and hash(twin) == hash(ref)
    lat = enumerate_sublattices(6)[-1]
    with pytest.raises(AttributeError, match=r"^cannot assign to field 'h'$"):
        lat.h = 7
    with pytest.raises(AttributeError, match=r"^cannot delete field 'h'$"):
        del lat.h
    assert lat == HnfLattice(6, 5, 1) and (lat.h, lat.m, lat.g) == (6, 5, 1)


def test_enumerate_rejects_nonpositive():
    with pytest.raises(ValueError):
        enumerate_sublattices(0)
    with pytest.raises(ValueError):
        sigma1(0)
    with pytest.raises(ValueError):
        divisors(-3)


def test_sigma1_small_values():
    assert [sigma1(d) for d in range(1, 9)] == [1, 3, 4, 7, 6, 12, 8, 15]


def test_divisors_match_full_trial_division():
    # Pins the ascending order and a square root listed once (9801 = 99^2).
    for d in [*range(1, 3001), 9801, 9973, 10**4]:
        assert divisors(d) == [k for k in range(1, d + 1) if d % k == 0]


def test_sigma1_matches_a_divisor_sieve():
    n = 10**5
    sieve = [0] * (n + 1)
    for k in range(1, n + 1):
        for multiple in range(k, n + 1, k):
            sieve[multiple] += k
    assert [sigma1(d) for d in range(1, n + 1)] == sieve[1:]


@pytest.mark.parametrize(
    "d",
    [
        1,
        2**16,  # a power of 2 alone: no odd part
        3**10,  # an odd prime power alone
        9409,  # 97^2: the trial divisor meets p * p == n
        99991,  # a prime: the whole odd part is left over
        99221,  # 313 * 317: a prime cofactor above the last trial divisor
        99856,  # 2^4 * 79^2
    ],
)
def test_sigma1_where_the_factorisation_branches(d):
    assert sigma1(d) == sum(divisors(d))


def test_hnf_lattice_validation():
    with pytest.raises(ValueError):
        HnfLattice(0, 0, 1)
    with pytest.raises(ValueError):
        HnfLattice(2, 2, 1)
    with pytest.raises(ValueError):
        HnfLattice(2, -1, 1)
    with pytest.raises(ValueError):
        HnfLattice(2, 0, 0)


@pytest.mark.parametrize("fields", [(2.5, 0, 1), (True, 0, True), (2, 0.0, 1)])
def test_hnf_lattice_refuses_non_integer_fields(fields):
    with pytest.raises(ValueError):
        HnfLattice(*fields)


# The exact messages, and which field is named first when several are bad:
# h, then g, then m, then m < h.
@pytest.mark.parametrize(
    "fields, message",
    [
        ((0, 0, 1), "need an integer h >= 1, got 0"),
        ((2, 0, 0), "need an integer g >= 1, got 0"),
        ((2, -1, 1), "need an integer m >= 0, got -1"),
        ((2, 2, 1), "need m < h, got m=2, h=2"),
        ((3, 5, 1), "need m < h, got m=5, h=3"),
        ((True, 0, 1), "need an integer h >= 1, got True"),
        ((1, 0, True), "need an integer g >= 1, got True"),
        ((2, 0.0, 1), "need an integer m >= 0, got 0.0"),
        ((2, 1, 2.5), "need an integer g >= 1, got 2.5"),
        ((0, 0, 0), "need an integer h >= 1, got 0"),
        ((2, -1, 0), "need an integer g >= 1, got 0"),
    ],
)
def test_hnf_lattice_error_messages(fields, message):
    with pytest.raises(ValueError) as caught:
        HnfLattice(*fields)
    assert str(caught.value) == message


def test_hnf_lattice_keywords_and_replace_are_checked():
    lat = HnfLattice(h=2, m=1, g=3)
    assert lat == HnfLattice(2, 1, 3) and lat.d == 6
    # Not a dataclass: replace finds no route around the checked constructor.
    with pytest.raises(TypeError, match="dataclass"):
        dataclasses.replace(lat, m=lat.h)
