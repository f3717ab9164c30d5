"""Finite-index sublattices of the square lattice Z + Z*sqrt(-1).

A rank-2 sublattice is given either by an arbitrary positively oriented
integer basis (:class:`Basis2`) or by its canonical Hermite-form triple
(:class:`HnfLattice`), with basis (h, 0), (m, g) and 0 <= m < h.  Distinct
triples describe distinct sublattices, so the triple doubles as an equality
witness and a dictionary key.  The number of sublattices of index d is the
divisor sum sigma_1(d).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class Basis2:
    """Ordered pair of integer vectors, coordinates taken in {1, sqrt(-1)}."""

    v1: tuple[int, int]
    v2: tuple[int, int]


@dataclass(frozen=True, order=True)
class HnfLattice:
    """Canonical triple (h, m, g): basis (h, 0), (m, g); index d = h*g."""

    h: int
    m: int
    g: int

    def __post_init__(self) -> None:
        if self.h < 1 or self.g < 1:
            raise ValueError(f"need h >= 1 and g >= 1, got h={self.h}, g={self.g}")
        if not 0 <= self.m < self.h:
            raise ValueError(f"need 0 <= m < h, got m={self.m}, h={self.h}")

    @property
    def d(self) -> int:
        return self.h * self.g

    def basis(self) -> Basis2:
        return Basis2((self.h, 0), (self.m, self.g))

    def to_json(self) -> dict:
        return {"h": self.h, "m": self.m, "g": self.g, "d": self.d}

    @classmethod
    def from_json(cls, obj: dict) -> "HnfLattice":
        # Fields must be plain ints: a float, a string or a bool is refused
        # rather than coerced.
        keys = ("h", "m", "g", "d") if "d" in obj else ("h", "m", "g")
        for key in keys:
            if type(obj.get(key)) is not int:
                raise ValueError(f"field {key!r} must be an integer, got {obj.get(key)!r}")
        lat = cls(obj["h"], obj["m"], obj["g"])
        if "d" in obj and obj["d"] != lat.d:
            raise ValueError(f"inconsistent index: d={obj['d']} but h*g={lat.d}")
        return lat


def det(basis: Basis2) -> int:
    """Determinant of the basis matrix; equals the sublattice index when positive.

    >>> det(Basis2((2, 1), (0, 1)))
    2
    """
    (alpha, beta), (gamma, delta) = basis.v1, basis.v2
    return alpha * delta - beta * gamma


def hnf_reduce(basis: Basis2) -> HnfLattice:
    """Canonical Hermite triple of the sublattice spanned by ``basis``.

    Change of basis: with v1 = (alpha, beta), v2 = (gamma, delta) and
    g = gcd(beta, delta), pick Bezout coefficients beta'*x + delta'*y = 1 and
    take w1 = delta'*v1 - beta'*v2 = (h, 0), w2 = x*v1 + y*v2 = (*, g).  The
    transform is unimodular, so the span is unchanged; m is the second basis
    vector's real part reduced mod h (shifting it by multiples of h rewrites
    w2 by a power of the shear (1, 1; 0, 1), another unimodular move).

    >>> hnf_reduce(Basis2((2, 1), (0, 1)))
    HnfLattice(h=2, m=0, g=1)
    """
    d = det(basis)
    if d <= 0:
        raise ValueError(f"basis must be positively oriented, determinant {d}")
    (alpha, beta), (gamma, delta) = basis.v1, basis.v2
    g = gcd(beta, delta)  # beta = delta = 0 would force determinant 0
    beta_p, delta_p = beta // g, delta // g
    # Bezout pair beta'*x + delta'*y = 1; delta' = 0 forces beta' = +-1.
    x = pow(beta_p, -1, abs(delta_p)) if delta_p else beta_p
    y = (1 - beta_p * x) // delta_p if delta_p else 0
    h = delta_p * alpha - beta_p * gamma  # h*g = d > 0, so h > 0
    m = (alpha * x + gamma * y) % h
    return HnfLattice(h, m, g)


def divisors(d: int) -> list[int]:
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    return [k for k in range(1, d + 1) if d % k == 0]


def sigma1(d: int) -> int:
    """Divisor sum sigma_1(d) = sum of the positive divisors of d.

    >>> [sigma1(d) for d in range(1, 7)]
    [1, 3, 4, 7, 6, 12]
    """
    return sum(divisors(d))


def enumerate_sublattices(d: int) -> list[HnfLattice]:
    """All index-d sublattices as canonical triples, ordered by (h, m).

    For each divisor h of d there are exactly h triples (h, 0..h-1, d/h),
    so the total count is sigma1(d).
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    return [HnfLattice(h, m, d // h) for h in divisors(d) for m in range(h)]
