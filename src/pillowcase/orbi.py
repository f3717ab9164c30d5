"""Corner images of index-d covers of the pillowcase and four-point counts.

The pillowcase is the quotient of the square torus C / (Z + Z*sqrt(-1)) by
the elliptic involution; it is a sphere with four Z/2 corner points X1..X4,
the images of the half-period points.  Each corner is labelled by the coset
of its doubled coordinates in (Z/2)^2:

    X1 <-> (0, 0)    X2 <-> (1, 0)    X3 <-> (1, 1)    X4 <-> (0, 1)

A degree-d holomorphic cover of the pillowcase by itself corresponds to an
index-d sublattice together with a choice of which corner sits over which;
with the first corner pinned over X1 the residual freedom is the order of
the remaining three, so every sublattice carries exactly six covers.
"""

from __future__ import annotations

from collections import Counter
from enum import IntEnum
from itertools import permutations, product

from .lattice import HnfLattice, _need_int, enumerate_sublattices
from .qseries import QSeries, _series


class OrbiPoint(IntEnum):
    X1 = 1
    X2 = 2
    X3 = 3
    X4 = 4


InsertionTuple = tuple[OrbiPoint, OrbiPoint, OrbiPoint, OrbiPoint]

COSET: dict[OrbiPoint, tuple[int, int]] = {
    OrbiPoint.X1: (0, 0),
    OrbiPoint.X2: (1, 0),
    OrbiPoint.X3: (1, 1),
    OrbiPoint.X4: (0, 1),
}

POINT_BY_COSET = {c: p for p, c in COSET.items()}

# Images of (2, 3, 4) under each reordering of the three free corners.
MARKING_PERMUTATIONS: tuple[tuple[int, int, int], ...] = tuple(permutations((2, 3, 4)))

# Translating by the half period whose doubled coordinates are a corner's
# coset adds that coset to every corner's coset mod 2, so it carries the
# corner to X1 (and X1 to the corner: each translation is an involution).
_TO_X1 = {
    q: {p: POINT_BY_COSET[(a + ca) % 2, (b + cb) % 2] for p, (a, b) in COSET.items()}
    for q, (ca, cb) in COSET.items()
}


def translate_action(name: str) -> dict[OrbiPoint, OrbiPoint]:
    """Corner permutation induced by translating the torus by a half period.

    The name says the period: "half" is 1/2, "half_plus" (1 + sqrt(-1))/2 and
    "half_i" sqrt(-1)/2, carrying X1 to X2, X3 and X4 in turn.  Each of the
    three translations is a product of two disjoint swaps and together with
    the identity they form a Klein four group.
    """
    corner = {"half": OrbiPoint.X2, "half_plus": OrbiPoint.X3, "half_i": OrbiPoint.X4}.get(name)
    if corner is None:
        raise ValueError(f"unknown translation {name!r}")
    return dict(_TO_X1[corner])


def classify_images(lat: HnfLattice) -> tuple[OrbiPoint, OrbiPoint, OrbiPoint]:
    """Corners over which the cover of the sublattice (h, m, g) places X2, X3, X4.

    The identity map of C descends to the cover attached to the sublattice,
    sending the half periods to h/2, (h+m)/2 + g/2*sqrt(-1), m/2 + g/2*sqrt(-1).
    Doubling and reducing mod 2 reads off the corner cosets:

        X2 -> (h, 0)    X3 -> (h+m, g)    X4 -> (m, g)    (mod 2)

    Only the parities of (h, m, g) matter, giving eight cases in total, read
    from a table built once from these cosets.
    """
    return _IMAGES_BY_PARITY[lat.h % 2, lat.m % 2, lat.g % 2]


_IMAGES_BY_PARITY = {
    (h, m, g): (POINT_BY_COSET[h, 0], POINT_BY_COSET[(h + m) % 2, g], POINT_BY_COSET[m, g])
    for h, m, g in product((0, 1), repeat=3)
}


def _as_points(ins) -> InsertionTuple:
    # OrbiPoint members or plain ints 1..4: a bool or a float is refused, not
    # read as the corner it equals, so a tuple passes as is only when its
    # members are OrbiPoints by type (True == X1, yet True is no corner).
    if type(ins) is tuple and len(ins) == 4:
        if type(ins[0]) is type(ins[1]) is type(ins[2]) is type(ins[3]) is OrbiPoint:
            return ins
    pts = tuple(ins)
    if len(pts) != 4 or not all(type(p) in (int, OrbiPoint) and 1 <= p <= 4 for p in pts):
        raise ValueError(f"need 4 insertion points, each an OrbiPoint or an int 1..4, got {pts!r}")
    return tuple(map(OrbiPoint, pts))


# Counting happens with the first marked corner pinned over X1; the count is
# translation invariant, so every ordered tuple is read at its translate that
# starts at X1.
_X1_FIRST: dict[InsertionTuple, InsertionTuple] = {
    ins: tuple(map(_TO_X1[ins[0]].__getitem__, ins)) for ins in product(OrbiPoint, repeat=4)
}


# Censuses by degree, each beside the enumerator, classifier and marking
# permutations that built it: while any of the three is patched or wrapped
# (fault injection, tracing), the degree is rebuilt, never read from another.
_CENSUS: dict[int, tuple] = {}


def _cover_census(d: int) -> dict[InsertionTuple, int]:
    # Every count at degree d reads this one census: the number of index-d
    # covers per ordered corner image of the marked points, X1 pinned over X1.
    # Sublattices with the same image triple (one per parity class, at most
    # eight) carry the same covers, so each class is expanded once.
    built = _CENSUS.get(d)
    if not (built and built[0] is enumerate_sublattices and built[1] is classify_images
            and built[2] is MARKING_PERMUTATIONS):
        covers = Counter()
        for img, lattices in Counter(map(classify_images, enumerate_sublattices(d))).items():
            for tau in MARKING_PERMUTATIONS:
                covers[OrbiPoint.X1, img[tau[0] - 2], img[tau[1] - 2], img[tau[2] - 2]] += lattices
        built = _CENSUS[d] = (enumerate_sublattices, classify_images, MARKING_PERMUTATIONS, dict(covers))
    return built[3]


def correlator(ins, d: int) -> int:
    """Number of degree-d covers whose four corners land on ``ins`` in order.

    Covers are pairs (sublattice, reordering of the three free corners); the
    pair matches when the reordered images of X2, X3, X4 agree with the last
    three insertions position by position.  The count is translation
    invariant, so it is read off the degree's census at the tuple translated
    to start at X1.

    >>> correlator((1, 2, 3, 4), 3)
    4
    """
    return _cover_census(_need_int("d", d, 1)).get(_X1_FIRST[_as_points(ins)], 0)


def correlator_series(ins, trunc: int) -> QSeries:
    """Generating series sum_{d=1..N} correlator(ins, d) q^d."""
    _need_int("trunc", trunc, 1)
    ins = _as_points(ins)
    return _series([0] + [correlator(ins, d) for d in range(1, trunc + 1)])


def total_count_series(trunc: int) -> QSeries:
    """Generating series of the raw cover count: 6 per sublattice.

    Splitting the covers of degree d by their ordered corner images
    partitions this coefficient into the individual correlator values.
    """
    _need_int("trunc", trunc, 1)
    return _series([0] + [sum(_cover_census(d).values()) for d in range(1, trunc + 1)])
