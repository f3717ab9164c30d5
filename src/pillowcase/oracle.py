"""Brute-force cross-checks, kept deliberately independent.

Every check recomputes its target along a separate route: matrix orbits by
generator moves, corner classification from exact rational points, cover
counts from divisor sums, admissible branching data from the degree and
Euler-characteristic constraints.  Nothing here calls the reduction or
classification routines of the main modules except as the object under
test, and the small arithmetic helpers (divisor sums, partitions) are local
on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import floor

from . import orbi
from .lattice import HnfLattice
from .orbi import OrbiPoint

# Exhaustive ranges.  The matrix census scans a box of (2d+1)^4 candidate
# matrices and the branching census walks every partition of d across four
# fibers, so both are capped where a desk machine still finishes in seconds.
# The parity census walks about 0.82 * dmax^2 sublattices in exact rational
# arithmetic; all eight parity classes occur by d = 6, so its cap drops no case.
SL2_EXHAUSTIVE_MAX = 12
RH_EXHAUSTIVE_MAX = 9
PARITY_EXHAUSTIVE_MAX = 400


@dataclass(frozen=True)
class CheckResult:
    """Verdict of one check; truthiness is the verdict."""

    ok: bool
    name: str
    counterexample: dict | None = None
    details: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def _divisor_sum(n: int) -> int:
    return sum(k for k in range(1, n + 1) if n % k == 0)


# ---------------------------------------------------------------------------
# matrix orbit census
# ---------------------------------------------------------------------------


def _reduce_columns(alpha: int, beta: int, gamma: int, delta: int) -> tuple[int, int, int]:
    # Euclid on the bottom row by the unimodular column moves
    # c2 <- c2 - k*c1 and (c1, c2) <- (c2, -c1), then sign and shift fixes.
    while beta != 0:
        k = delta // beta
        gamma -= k * alpha
        delta -= k * beta
        alpha, beta, gamma, delta = gamma, delta, -alpha, -beta
    if alpha < 0:  # rescale both columns by the central -I
        alpha, gamma, delta = -alpha, -gamma, -delta
    gamma -= (gamma // alpha) * alpha
    return alpha, gamma, delta


def sl2_orbit_count(d: int) -> int:
    """Number of column-operation orbits of integer matrices with determinant d.

    Scans every matrix with entries in [-d, d]; each orbit of determinant-d
    matrices contains exactly one reduced form, and that form has entries in
    [0, d], so the box misses no orbit.
    """
    if not 1 <= d <= SL2_EXHAUSTIVE_MAX:
        raise ValueError(f"exhaustive census covers 1 <= d <= {SL2_EXHAUSTIVE_MAX}, got {d}")
    span = range(-d, d + 1)
    forms = set()
    for alpha, beta, gamma, delta in product(span, repeat=4):
        if alpha * delta - beta * gamma == d:
            forms.add(_reduce_columns(alpha, beta, gamma, delta))
    return len(forms)


def orbit_agreement_check(dmax: int) -> CheckResult:
    """Three routes to one number: orbit census, divisor sum, enumeration."""
    if not 1 <= dmax <= SL2_EXHAUSTIVE_MAX:
        raise ValueError(f"exhaustive census covers 1 <= d <= {SL2_EXHAUSTIVE_MAX}, got {dmax}")
    from .lattice import enumerate_sublattices, sigma1

    for d in range(1, dmax + 1):
        census = sl2_orbit_count(d)
        divisor = sigma1(d)
        listed = len(enumerate_sublattices(d))
        if not census == divisor == listed:
            return CheckResult(
                False,
                "oracle",
                counterexample={
                    "d": d,
                    "orbit_census": census,
                    "sigma1": divisor,
                    "enumerated": listed,
                },
            )
    return CheckResult(True, "oracle", details={"degrees": dmax})


# ---------------------------------------------------------------------------
# corner classification
# ---------------------------------------------------------------------------

# Corner images keyed by the parities (g, h, m); eight cases in all.
INSERTION_PARITY_TABLE: dict[tuple[int, int, int], tuple[OrbiPoint, OrbiPoint, OrbiPoint]] = {
    (0, 0, 0): (OrbiPoint.X1, OrbiPoint.X1, OrbiPoint.X1),
    (0, 0, 1): (OrbiPoint.X1, OrbiPoint.X2, OrbiPoint.X2),
    (0, 1, 0): (OrbiPoint.X2, OrbiPoint.X2, OrbiPoint.X1),
    (0, 1, 1): (OrbiPoint.X2, OrbiPoint.X1, OrbiPoint.X2),
    (1, 0, 0): (OrbiPoint.X1, OrbiPoint.X4, OrbiPoint.X4),
    (1, 0, 1): (OrbiPoint.X1, OrbiPoint.X3, OrbiPoint.X3),
    (1, 1, 0): (OrbiPoint.X2, OrbiPoint.X3, OrbiPoint.X4),
    (1, 1, 1): (OrbiPoint.X2, OrbiPoint.X4, OrbiPoint.X3),
}

_CORNER_BY_FRACTION = {
    (Fraction(0), Fraction(0)): OrbiPoint.X1,
    (Fraction(1, 2), Fraction(0)): OrbiPoint.X2,
    (Fraction(1, 2), Fraction(1, 2)): OrbiPoint.X3,
    (Fraction(0), Fraction(1, 2)): OrbiPoint.X4,
}


def _corner_of(x: Fraction, y: Fraction) -> OrbiPoint:
    key = (x - floor(x), y - floor(y))
    if key not in _CORNER_BY_FRACTION:
        raise ValueError(f"({x}, {y}) is not a half-period point")
    return _CORNER_BY_FRACTION[key]


def image_table_check(dmax: int) -> CheckResult:
    """Recompute corner images from exact rational points for every sublattice.

    The half periods of the sublattice (h, m, g) sit at h/2, (h+m)/2 +
    (g/2)i and m/2 + (g/2)i; flooring reduces them into the fundamental
    square and the fractional parts name the corner.  The result must agree
    with both the parity table above and the main classification.
    """
    if dmax < 1:
        raise ValueError(f"need dmax >= 1, got {dmax}")
    half = Fraction(1, 2)
    lattices = 0
    for d in range(1, dmax + 1):
        for h in (k for k in range(1, d + 1) if d % k == 0):
            g = d // h
            for m in range(h):
                direct = (
                    _corner_of(h * half, Fraction(0)),
                    _corner_of((h + m) * half, g * half),
                    _corner_of(m * half, g * half),
                )
                from_table = INSERTION_PARITY_TABLE[(g % 2, h % 2, m % 2)]
                from_main = orbi.classify_images(HnfLattice(h, m, g))
                lattices += 1
                if not (direct == from_table == from_main):
                    return CheckResult(
                        False,
                        "parity",
                        counterexample={
                            "d": d,
                            "h": h,
                            "m": m,
                            "g": g,
                            "direct": [int(p) for p in direct],
                            "table": [int(p) for p in from_table],
                            "classify_images": [int(p) for p in from_main],
                        },
                    )
    return CheckResult(True, "parity", details={"lattices": lattices})


# ---------------------------------------------------------------------------
# closed forms of the four-point counts
# ---------------------------------------------------------------------------


def _closed_form_count(ins, d: int):
    shape = sorted(tuple(ins).count(p) for p in set(ins))
    if shape == [1, 1, 1, 1]:
        return _divisor_sum(d) if d % 2 else 0
    if shape == [4]:
        return 6 * _divisor_sum(d // 4) if d % 4 == 0 else 0
    if shape == [2, 2]:
        even = _divisor_sum(d) if d % 2 == 0 else 0
        quarter = _divisor_sum(d // 4) if d % 4 == 0 else 0
        return Fraction(2, 3) * (even - quarter)
    return 0


def correlator_crosscheck(dmax: int) -> CheckResult:
    """Enumerated four-point counts against their divisor-sum closed forms.

    Covers every insertion class (all 35 multisets over the four corners,
    the translation-only ones included) at every degree up to dmax.
    """
    if dmax < 1:
        raise ValueError(f"need dmax >= 1, got {dmax}")
    checked = 0
    for d in range(1, dmax + 1):
        for ins in combinations_with_replacement(tuple(OrbiPoint), 4):
            expected = _closed_form_count(ins, d)
            got = orbi.correlator(ins, d)
            checked += 1
            if got != expected:
                return CheckResult(
                    False,
                    "closedform",
                    counterexample={
                        "insertions": [int(p) for p in ins],
                        "d": d,
                        "enumerated": got,
                        "closed_form": str(expected),
                    },
                )
    return CheckResult(True, "closedform", details={"classes_checked": checked})


def lumpsum_check(dmax: int) -> CheckResult:
    """Partition of the raw cover count by ordered corner images.

    Summing the counts over all insertion tuples that start at X1 must
    reproduce six covers per sublattice, i.e. 6*sigma_1(d); the total-count
    series must say the same thing.
    """
    if dmax < 1:
        raise ValueError(f"need dmax >= 1, got {dmax}")
    totals = orbi.total_count_series(dmax)
    for d in range(1, dmax + 1):
        split = sum(
            orbi.correlator((OrbiPoint.X1,) + rest, d)
            for rest in product(tuple(OrbiPoint), repeat=3)
        )
        expected = 6 * _divisor_sum(d)
        if split != expected or totals.coeffs[d] != expected:
            return CheckResult(
                False,
                "lumpsum",
                counterexample={
                    "d": d,
                    "sum_of_counts": split,
                    "series_coefficient": str(totals.coeffs[d]),
                    "expected": expected,
                },
            )
    return CheckResult(True, "lumpsum", details={"degrees": dmax})


# ---------------------------------------------------------------------------
# branching data census
# ---------------------------------------------------------------------------


def _partitions(n: int, max_part: int | None = None):
    # non-increasing positive parts
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _fiber_solutions(n_marked: int, d: int):
    # All ways one target corner can absorb degree d: its marked preimages
    # ramify to odd orders 2a+1, every other preimage to even orders 2e.
    out = []
    for a_tuple in product(range((d + 1) // 2), repeat=n_marked):
        odd_total = sum(2 * a + 1 for a in a_tuple)
        if odd_total > d or (d - odd_total) % 2:
            continue
        for e_tuple in _partitions((d - odd_total) // 2):
            excess = sum(2 * a for a in a_tuple) + sum(2 * e - 1 for e in e_tuple)
            trivial = all(a == 0 for a in a_tuple) and all(e == 1 for e in e_tuple)
            out.append((a_tuple, e_tuple, excess, trivial))
    return out


def rh_uniqueness_check(d: int) -> CheckResult:
    """Degree-d branched covers of the sphere marked over the four corners.

    Enumerates every assignment of the four marked points to the four
    corners and every compatible ramification profile: each fiber must sum
    to d, and the total ramification excess is capped by the
    Euler-characteristic count 2 = 2d - excess - (extra branching >= 0).
    The check passes when every admissible profile is the unramified one
    (all marked orders 1, all other preimages simple).
    """
    if not 1 <= d <= RH_EXHAUSTIVE_MAX:
        raise ValueError(f"exhaustive census covers 1 <= d <= {RH_EXHAUSTIVE_MAX}, got {d}")
    by_size = {n: _fiber_solutions(n, d) for n in range(5)}
    solutions = 0
    for assignment in product(range(4), repeat=4):
        fibers = [tuple(i for i in range(4) if assignment[i] == t) for t in range(4)]
        pools = [by_size[len(f)] for f in fibers]
        for combo in product(*pools):
            excess = combo[0][2] + combo[1][2] + combo[2][2] + combo[3][2]
            if excess > 2 * d - 2:
                continue
            solutions += 1
            if not (combo[0][3] and combo[1][3] and combo[2][3] and combo[3][3]):
                marked_orders = [0, 0, 0, 0]
                for fiber, (a_tuple, _, _, _) in zip(fibers, combo):
                    for marker, a in zip(fiber, a_tuple):
                        marked_orders[marker] = 2 * a + 1
                return CheckResult(
                    False,
                    "rh",
                    counterexample={
                        "d": d,
                        "assignment": [t + 1 for t in assignment],
                        "marked_orders": marked_orders,
                        "even_orders": [[2 * e for e in sol[1]] for sol in combo],
                    },
                )
    return CheckResult(True, "rh", details={"solutions": solutions})
