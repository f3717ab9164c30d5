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
from functools import cache
from itertools import permutations

from .lattice import HnfLattice, enumerate_sublattices
from .qseries import QSeries


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

# Translation by a half period permutes the corners; keys name the period.
TRANSLATION_COSETS: dict[str, tuple[int, int]] = {
    "half": (1, 0),        # shift by 1/2
    "half_plus": (1, 1),   # shift by (1 + sqrt(-1))/2
    "half_i": (0, 1),      # shift by sqrt(-1)/2
}


def _translation(coset: tuple[int, int]) -> dict[OrbiPoint, OrbiPoint]:
    # Translating by the half period with doubled coordinates `coset` adds
    # it to every corner's coset mod 2.
    ca, cb = coset
    return {
        p: POINT_BY_COSET[((a + ca) % 2, (b + cb) % 2)] for p, (a, b) in COSET.items()
    }


def translate_action(name: str) -> dict[OrbiPoint, OrbiPoint]:
    """Corner permutation induced by translating the torus by a half period.

    Each of the three translations is a product of two disjoint swaps and
    together with the identity they form a Klein four group.
    """
    if name not in TRANSLATION_COSETS:
        raise ValueError(f"unknown translation {name!r}")
    return _translation(TRANSLATION_COSETS[name])


# Translation by a corner's own coset carries that corner to X1.
_TO_X1 = {p: _translation(c) for p, c in COSET.items()}


def classify_images(lat: HnfLattice) -> tuple[OrbiPoint, OrbiPoint, OrbiPoint]:
    """Corners over which the cover of the sublattice (h, m, g) places X2, X3, X4.

    The identity map of C descends to the cover attached to the sublattice,
    sending the half periods to h/2, (h+m)/2 + g/2*sqrt(-1), m/2 + g/2*sqrt(-1).
    Doubling and reducing mod 2 reads off the corner cosets:

        X2 -> (h, 0)    X3 -> (h+m, g)    X4 -> (m, g)    (mod 2)

    Only the parities of (h, m, g) matter, giving eight cases in total.
    """
    c2 = (lat.h % 2, 0)
    c3 = ((lat.h + lat.m) % 2, lat.g % 2)
    c4 = (lat.m % 2, lat.g % 2)
    return (POINT_BY_COSET[c2], POINT_BY_COSET[c3], POINT_BY_COSET[c4])


def _as_points(ins) -> InsertionTuple:
    pts = tuple(OrbiPoint(p) for p in ins)
    if len(pts) != 4:
        raise ValueError(f"need exactly 4 insertion points, got {len(pts)}")
    return pts


def _x1_first(ins: InsertionTuple) -> InsertionTuple:
    # Counting happens with the first marked corner pinned over X1; the count
    # is translation invariant, so translate the first corner there.
    action = _TO_X1[ins[0]]
    return tuple(action[p] for p in ins)


def _image_census(d: int) -> tuple[tuple[tuple[OrbiPoint, OrbiPoint, OrbiPoint], int], ...]:
    # Every count at degree d reads this one census: the number of index-d
    # sublattices per image triple (at most eight, one per parity class).
    # It holds lattice counts only; the callers apply the marking
    # permutations on every call.  The memo is keyed by the enumerator and
    # the classifier in use as well as the degree, so a patched or wrapped
    # one (fault injection, tracing) never reads counts another one built.
    return _census(d, enumerate_sublattices, classify_images)


@cache
def _census(d, enumerate_fn, classify_fn):
    return tuple(Counter(classify_fn(lat) for lat in enumerate_fn(d)).items())


def correlator(ins, d: int) -> int:
    """Number of degree-d covers whose four corners land on ``ins`` in order.

    Covers are pairs (sublattice, reordering of the three free corners); the
    pair matches when the reordered images of X2, X3, X4 agree with the last
    three insertions position by position.  Sublattices with the same image
    triple match together, so the count is read off the degree's census.

    >>> correlator((1, 2, 3, 4), 3)
    4
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    ins = _x1_first(_as_points(ins))
    target = ins[1:]
    return sum(
        lattices
        for img, lattices in _image_census(d)
        for tau in MARKING_PERMUTATIONS
        if (img[tau[0] - 2], img[tau[1] - 2], img[tau[2] - 2]) == target
    )


def correlator_series(ins, trunc: int) -> QSeries:
    """Generating series sum_{d=1..N} correlator(ins, d) q^d."""
    if trunc < 1:
        raise ValueError(f"need trunc >= 1, got {trunc}")
    ins = _as_points(ins)
    return QSeries((0,) + tuple(correlator(ins, d) for d in range(1, trunc + 1)))


def total_count_series(trunc: int) -> QSeries:
    """Generating series of the raw cover count: 6 per sublattice.

    Splitting the covers of degree d by their ordered corner images
    partitions this coefficient into the individual correlator values.
    """
    if trunc < 1:
        raise ValueError(f"need trunc >= 1, got {trunc}")
    six = len(MARKING_PERMUTATIONS)
    lattices = (sum(n for _, n in _image_census(d)) for d in range(1, trunc + 1))
    return QSeries((0,) + tuple(six * n for n in lattices))
