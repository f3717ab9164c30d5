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

from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, product
from math import gcd

from . import orbi
from .lattice import HnfLattice, _Value
from .orbi import OrbiPoint

# Exhaustive ranges, with each check's cost at its cap (median of ten fresh
# processes per check on a 2-core Xeon).  The matrix census walks the
# (alpha, beta) in [-d, -1] x [-d, d] whose gcd g divides d, and for each
# reduces at most the first g solutions in the box: 0.004 s at 12.  The branching
# census walks every partition of d across four fibers, once per ordered
# pattern of fiber sizes (35 per degree): 0.002 s at 9.  The parity census
# walks about 0.82 * dmax^2 sublattices, each doubled coordinate halved and
# reduced once per call: 0.19 s at 400; all eight parity classes occur by
# d = 6, so its cap drops no case.  The lump-sum and closed-form checks
# enumerate about 0.82 * dmax^2 sublattices: 0.63 s and 1.0 s at 1000.
SL2_EXHAUSTIVE_MAX = 12
RH_EXHAUSTIVE_MAX = 9
PARITY_EXHAUSTIVE_MAX = 400
DIVISOR_SUM_MAX = 1000


class CheckResult(_Value):
    """Verdict of one check; truthiness is the verdict."""

    ok: bool
    counterexample: dict | None
    details: dict
    __hash__ = None  # details is a dict: compared by the fields, never hashed

    def __init__(self, ok: bool, counterexample: dict | None = None, details: dict | None = None):
        details = {} if details is None else details
        self.__dict__.update(ok=ok, counterexample=counterexample, details=details)

    def __bool__(self) -> bool:
        return self.ok


def _need_degree(d, limit: int) -> None:
    # Plain ints only: a bool would pass for 1 and a float fail inside range().
    # Local on purpose, so the oracle never leans on the code it checks.
    if type(d) is not int or not 1 <= d <= limit:
        raise ValueError(f"need an integer 1 <= d <= {limit}, got {d!r}")


def _divisor_sums(n: int) -> list[int]:
    # sigma_1(k) for k = 0..n (0 at k = 0), one sieve: each k adds itself to its multiples.
    sums = [0] * (n + 1)
    for k in range(1, n + 1):
        for multiple in range(k, n + 1, k):
            sums[multiple] += k
    return sums


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


def _orbit_representatives(d: int) -> dict[tuple[int, int, int], tuple[int, int, int, int]]:
    # Each orbit's reduced form and the first matrix of [-d, d]^4 met in it, in
    # the lexicographic order of all four entries.  Only matrices that can come
    # first are reduced.  Every orbit holds its negated reduced form
    # (-h, 0, -m, -g), met at alpha = -h < 0, so no alpha >= 0 comes first.
    # For a first column c1 = (alpha, beta) with gcd g dividing d, the
    # solutions of alpha*delta = d + beta*gamma take gamma in one residue class
    # mod |alpha|/g, neighbours differing by -c1/g; those in the box are
    # consecutive, so the (i + g)-th is the i-th minus c1, an orbit already met.
    first: dict[tuple[int, int, int], tuple[int, int, int, int]] = {}
    for alpha in range(-d, 0):
        for beta in range(-d, d + 1):
            g = gcd(alpha, beta)
            if d % g:
                continue
            step = -alpha // g
            residue = -(d // g) * pow(beta // g, -1, step) % step
            met = 0
            for gamma in range(-d + (residue + d) % step, d + 1, step):
                delta = (d + beta * gamma) // alpha
                if -d <= delta <= d:
                    matrix = (alpha, beta, gamma, delta)
                    first.setdefault(_reduce_columns(*matrix), matrix)
                    met += 1
                    if met == g:
                        break
    return first


def orbit_agreement_check(dmax: int) -> CheckResult:
    """The orbit census against the sublattice list, one to one.

    For each orbit of determinant-d matrices, `hnf_reduce` of the first
    matrix the walk meets must be the orbit's own reduced form (alpha, gamma,
    delta) read as (h, m, g); those forms must be exactly the enumerated
    index-d sublattices, and their number the divisor sum sigma_1(d).
    """
    _need_degree(dmax, SL2_EXHAUSTIVE_MAX)
    from .lattice import Basis2, enumerate_sublattices, hnf_reduce, sigma1

    for d in range(1, dmax + 1):
        orbits = _orbit_representatives(d)
        forms = set()
        for form, (alpha, beta, gamma, delta) in orbits.items():
            reduced = hnf_reduce(Basis2((alpha, beta), (gamma, delta)))
            lat = HnfLattice(*form)
            if reduced != lat:
                return CheckResult(
                    False,
                    counterexample={
                        "d": d,
                        "matrix": [alpha, beta, gamma, delta],
                        "orbit_form": list(form),
                        "hnf_reduce": reduced.to_json(),
                    },
                )
            forms.add(lat)
        listed = enumerate_sublattices(d)
        divisor = sigma1(d)
        if not len(orbits) == divisor == len(listed) or forms != set(listed):
            return CheckResult(
                False,
                counterexample={
                    "d": d,
                    "orbit_census": len(orbits),
                    "sigma1": divisor,
                    "enumerated": len(listed),
                    "unmatched": [lat.to_json() for lat in sorted(forms ^ set(listed))],
                },
            )
    return CheckResult(True, details={"degrees": dmax})


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

_CORNER_BY_POINT = {
    ((0, 1), (0, 1)): OrbiPoint.X1,
    ((1, 2), (0, 1)): OrbiPoint.X2,
    ((1, 2), (1, 2)): OrbiPoint.X3,
    ((0, 1), (1, 2)): OrbiPoint.X4,
}


def _half_mod_one(a: int) -> tuple[int, int]:
    # A doubled coordinate halved into [0, 1), as lowest-terms (num, den) ints.
    return (Fraction(a, 2) % 1).as_integer_ratio()


def _corner_of(x: tuple[int, int], y: tuple[int, int]) -> OrbiPoint:
    # (x, y) already reduced mod 1; the one reader of the corner names.
    corner = _CORNER_BY_POINT.get((x, y))
    if corner is None:
        raise ValueError(f"({Fraction(*x)}, {Fraction(*y)}) is not a half-period point")
    return corner


def image_table_check(dmax: int) -> CheckResult:
    """Recompute corner images from exact rational points for every sublattice.

    The half periods of the sublattice (h, m, g) sit at h/2, (h+m)/2 +
    (g/2)i and m/2 + (g/2)i; reduced mod 1 into the fundamental square,
    each names its corner.  Each distinct coordinate is halved and reduced
    once per call, each distinct point named once (as int pairs), and h/2
    and the table rows once per (h, g); every sublattice is still compared.
    The result must agree with both the parity table and the main classification.
    """
    _need_degree(dmax, PARITY_EXHAUSTIVE_MAX)
    half = cache(_half_mod_one)

    @cache
    def corner(a: int, b: int) -> OrbiPoint:  # doubled coordinates -> corner
        return _corner_of(half(a), half(b))

    lattices = 0
    for d in range(1, dmax + 1):
        for h in (k for k in range(1, d + 1) if d % k == 0):
            g = d // h
            at_h = corner(h, 0)
            rows = INSERTION_PARITY_TABLE[g % 2, h % 2, 0], INSERTION_PARITY_TABLE[g % 2, h % 2, 1]
            for m in range(h):
                direct = (at_h, corner(h + m, g), corner(m, g))
                from_table = rows[m % 2]
                from_main = orbi.classify_images(HnfLattice(h, m, g))
                lattices += 1
                if not (direct == from_table == from_main):
                    return CheckResult(
                        False,
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
    return CheckResult(True, details={"lattices": lattices})


# ---------------------------------------------------------------------------
# closed forms of the four-point counts
# ---------------------------------------------------------------------------


def _closed_form_count(shape: tuple[int, ...], d: int, sigma: list[int]):
    # shape: the class's sorted multiplicities; sigma: divisor sums reaching d.
    if shape == (1, 1, 1, 1):
        return sigma[d] if d % 2 else 0
    if shape == (4,):
        return 6 * sigma[d // 4] if d % 4 == 0 else 0
    if shape == (2, 2):
        even = sigma[d] if d % 2 == 0 else 0
        quarter = sigma[d // 4] if d % 4 == 0 else 0
        return Fraction(2, 3) * (even - quarter)
    return 0


def correlator_crosscheck(dmax: int) -> CheckResult:
    """Enumerated four-point counts against their divisor-sum closed forms.

    Covers every insertion class (all 35 multisets over the four corners,
    the translation-only ones included) at every degree up to dmax.  The
    closed form depends only on the class's shape (five in all), so it is
    evaluated once per shape and degree.
    """
    _need_degree(dmax, DIVISOR_SUM_MAX)
    sigma = _divisor_sums(dmax)
    classes = [
        (ins, tuple(sorted(ins.count(p) for p in set(ins))))
        for ins in combinations_with_replacement(tuple(OrbiPoint), 4)
    ]
    shapes = dict.fromkeys(shape for _, shape in classes)
    checked = 0
    for d in range(1, dmax + 1):
        by_shape = {shape: _closed_form_count(shape, d, sigma) for shape in shapes}
        for ins, shape in classes:
            expected = by_shape[shape]
            got = orbi.correlator(ins, d)
            checked += 1
            if got != expected:
                return CheckResult(
                    False,
                    counterexample={
                        "insertions": [int(p) for p in ins],
                        "d": d,
                        "enumerated": got,
                        "closed_form": str(expected),
                    },
                )
    return CheckResult(True, details={"classes_checked": checked})


def lumpsum_check(dmax: int) -> CheckResult:
    """Partition of the raw cover count by ordered corner images.

    Summing the counts over all insertion tuples that start at X1 must
    reproduce six covers per sublattice, i.e. 6*sigma_1(d); the total-count
    series must say the same thing.
    """
    _need_degree(dmax, DIVISOR_SUM_MAX)
    totals = orbi.total_count_series(dmax).coeffs
    sigma = _divisor_sums(dmax)
    x1_first = [(OrbiPoint.X1, *rest) for rest in product(OrbiPoint, repeat=3)]
    for d in range(1, dmax + 1):
        split = sum(orbi.correlator(ins, d) for ins in x1_first)
        expected = 6 * sigma[d]
        if split != expected or totals[d] != expected:
            return CheckResult(
                False,
                counterexample={
                    "d": d,
                    "sum_of_counts": split,
                    "series_coefficient": str(totals[d]),
                    "expected": expected,
                },
            )
    return CheckResult(True, details={"degrees": dmax})


# ---------------------------------------------------------------------------
# branching data census
# ---------------------------------------------------------------------------


def _partitions(n: int, max_part: int):
    # non-increasing positive parts, none above max_part
    if n == 0:
        yield ()
        return
    for first in range(min(max_part, n), 0, -1):
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
        rest = (d - odd_total) // 2
        for e_tuple in _partitions(rest, rest):
            excess = sum(2 * a for a in a_tuple) + sum(2 * e - 1 for e in e_tuple)
            trivial = all(a == 0 for a in a_tuple) and all(e == 1 for e in e_tuple)
            out.append((a_tuple, e_tuple, excess, trivial))
    return out


def _profiles_within(fiber_lists: list[list], budget: int):
    # The combinations of product(*fiber_lists), in product order, whose
    # excesses (entry 2) sum to at most budget.  The other entries of an
    # admitted combination add at least their lists' least excesses (floors),
    # so no entry above its own floor plus the slack is in one.  Dropping
    # those first keeps each list's order, and with it the product order; an
    # empty list admits nothing.
    if not all(fiber_lists):
        return ()
    floors = [min(sol[2] for sol in sols) for sols in fiber_lists]
    slack = budget - sum(floors)
    kept = [[sol for sol in sols if sol[2] <= floor + slack] for sols, floor in zip(fiber_lists, floors)]
    return (combo for combo in product(*kept) if sum(sol[2] for sol in combo) <= budget)


def rh_uniqueness_check(dmax: int) -> CheckResult:
    """Branched covers of the sphere marked over the four corners, d = 1..dmax.

    At each degree d, enumerates every assignment of the four marked points
    to the four corners and every compatible ramification profile: each
    fiber must sum to d, and the total ramification excess is capped by the
    Euler-characteristic count 2 = 2d - excess - (extra branching >= 0).
    The profiles are the product of the four fibers' choices, in product
    order, filtered by that cap.  Before the product is taken, each fiber
    drops every choice that passes the cap even beside the least excess of
    each other fiber.  The check passes when every admissible profile is the
    unramified one (all marked orders 1, all other preimages simple); it
    stops at the first degree with another profile.  The profiles depend
    only on how many marked points each corner takes (35 ordered patterns),
    so each pattern is walked once per degree and credited to each of the
    256 assignments with that pattern.
    """
    _need_degree(dmax, RH_EXHAUSTIVE_MAX)
    # Each assignment with its pattern: how many marked points each corner takes.
    marked = [(a, tuple(map(a.count, range(4)))) for a in product(range(4), repeat=4)]
    patterns = dict.fromkeys(pattern for _, pattern in marked)
    solutions = 0
    for d in range(1, dmax + 1):
        by_size = {n: _fiber_solutions(n, d) for n in range(5)}
        walks = {}  # pattern -> (profiles admitted, first one that ramifies or None)
        for pattern in patterns:
            count, ramified = 0, None
            for combo in _profiles_within([by_size[n] for n in pattern], 2 * d - 2):
                if not (combo[0][3] and combo[1][3] and combo[2][3] and combo[3][3]):
                    ramified = combo
                    break
                count += 1
            walks[pattern] = (count, ramified)
        for assignment, pattern in marked:
            count, ramified = walks[pattern]
            if ramified is not None:
                marked_orders = [0, 0, 0, 0]
                for t, (a_tuple, _, _, _) in enumerate(ramified):
                    fiber = [i for i in range(4) if assignment[i] == t]
                    for marker, a in zip(fiber, a_tuple):
                        marked_orders[marker] = 2 * a + 1
                return CheckResult(
                    False,
                    counterexample={
                        "d": d,
                        "assignment": [t + 1 for t in assignment],
                        "marked_orders": marked_orders,
                        "even_orders": [[2 * e for e in sol[1]] for sol in ramified],
                    },
                )
            solutions += count
    return CheckResult(True, details={"degrees": dmax, "solutions": solutions})
