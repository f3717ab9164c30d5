"""Finite-index sublattices of the square lattice Z + Z*sqrt(-1).

A rank-2 sublattice is given either by an arbitrary positively oriented
integer basis (:class:`Basis2`) or by its canonical Hermite-form triple
(:class:`HnfLattice`), with basis (h, 0), (m, g) and 0 <= m < h.  Distinct
triples describe distinct sublattices, so the triple doubles as an equality
witness and a dictionary key.  The number of sublattices of index d is the
divisor sum sigma_1(d), computed from the prime factorisation of d;
:func:`divisors` lists the divisors themselves in ascending order by trial
division.
"""

from __future__ import annotations

from functools import total_ordering
from math import gcd, isqrt


def _need_int(name: str, value, minimum: int | None = None) -> int:
    # The one integer rule of the exact core: a plain int (>= minimum if given)
    # passes through; a bool, a float or anything else is refused, never coerced.
    if type(value) is not int or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"need an integer {name}{bound}, got {value!r}")
    return value


class _Value:
    # A frozen value: the fields annotated in the class body, set once by the
    # class's checked __init__, into __dict__ or its slots.  == and hash go by
    # the field values; copies and pickles call the class, so pass its checks.

    __slots__ = ()

    def __init_subclass__(cls, order: bool = False) -> None:
        cls.__match_args__ = tuple(cls.__annotations__)
        if order:  # <, <=, > and >= by the field values, between two of cls
            cls.__lt__ = _Value._lt
            total_ordering(cls)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def _lt(self, other):
        return self._values() < other._values() if type(other) is type(self) else NotImplemented

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Basis2(_Value):
    """Ordered pair of integer vectors, coordinates taken in {1, sqrt(-1)}."""

    v1: tuple[int, int]
    v2: tuple[int, int]

    def __init__(self, v1: tuple[int, int], v2: tuple[int, int]) -> None:
        for name, vector in (("v1", v1), ("v2", v2)):
            if type(vector) is not tuple or len(vector) != 2:
                raise ValueError(f"need a pair of integers {name}, got {vector!r}")
            for entry in vector:
                _need_int(f"{name} entry", entry)
        self.__dict__.update(v1=v1, v2=v2)


class HnfLattice(_Value, order=True):
    """Canonical triple (h, m, g): basis (h, 0), (m, g); index d = h*g."""

    __slots__ = ("h", "m", "g")  # built in bulk by the census: no per-instance dict
    h: int
    m: int
    g: int

    def __init__(self, h: int, m: int, g: int) -> None:
        # One inline test passes every valid triple; a failing one is checked
        # field by field (h, g, m, then m < h) so the message names the field.
        if not (type(h) is type(m) is type(g) is int and 0 <= m < h and g >= 1):
            _need_int("h", h, 1)
            _need_int("g", g, 1)
            if _need_int("m", m, 0) >= h:
                raise ValueError(f"need m < h, got m={m}, h={h}")
        _set_h(self, h)
        _set_m(self, m)
        _set_g(self, g)

    @property
    def d(self) -> int:
        return self.h * self.g

    def to_json(self) -> dict:
        return {"h": self.h, "m": self.m, "g": self.g, "d": self.d}


# _Value.__setattr__ refuses assignment, so HnfLattice stores through its slot descriptors.
_set_h, _set_m, _set_g = HnfLattice.h.__set__, HnfLattice.m.__set__, HnfLattice.g.__set__


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
    """Positive divisors of d in ascending order, each listed once.

    Trial division up to isqrt(d) pairs every small divisor k with d // k, so
    a call costs O(sqrt(d)).  The ascending order is part of the contract:
    :func:`enumerate_sublattices` relies on it for its (h, m) ordering.

    >>> divisors(36)
    [1, 2, 3, 4, 6, 9, 12, 18, 36]
    """
    _need_int("d", d, 1)
    small = [k for k in range(1, isqrt(d) + 1) if d % k == 0]
    large = [d // k for k in reversed(small) if k * k != d]
    return small + large


def sigma1(d: int) -> int:
    """Divisor sum sigma_1(d) = sum of the positive divisors of d.

    sigma_1 is multiplicative, so it is the product over the prime powers
    p^k of d of 1 + p + ... + p^k.  The power of 2 is the lowest set bit of
    d; the odd part is split by trial division up to its square root, and
    what is left above 1 is a prime.

    >>> [sigma1(d) for d in range(1, 7)]
    [1, 3, 4, 7, 6, 12]
    >>> sigma1(99856) == sum(divisors(99856))  # 2^4 * 79^2
    True
    """
    _need_int("d", d, 1)
    low = d & -d
    total, n, p = 2 * low - 1, d // low, 3
    while p * p <= n:
        if n % p == 0:
            term = 1
            while n % p == 0:
                n //= p
                term = term * p + 1
            total *= term
        p += 2
    return total * (n + 1) if n > 1 else total


def enumerate_sublattices(d: int) -> list[HnfLattice]:
    """All index-d sublattices as canonical triples, ordered by (h, m).

    For each divisor h of d there are exactly h triples (h, 0..h-1, d/h),
    so the total count is sigma1(d).
    """
    return [HnfLattice(h, m, g) for h in divisors(d) for g in [d // h] for m in range(h)]
