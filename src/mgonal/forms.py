"""Exact arithmetic on generalized m-gonal numbers and weighted forms.

The x-th m-gonal number is (m-2)(x^2-x)/2 + x.  Negative x is admitted
(generalized m-gonal numbers).  A form is a weighted sum of m-gonal numbers
with positive integer weights; everything downstream evaluates it over either
the nonnegative integers or all integers.  All arithmetic is exact (Python
ints), which matters: window endpoint formulas square quantities of order
N*(m-2)^2 and would silently overflow fixed-width integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce

__all__ = [
    "Domain",
    "MgonalForm",
    "Decomposition",
    "polygonal_number",
    "is_polygonal",
    "decompose",
    "polygonal_values",
]


class Domain(Enum):
    """Variable domain: nonnegative integers or all integers."""

    NONNEG = "nonneg"
    INT = "int"


@dataclass(frozen=True)
class MgonalForm:
    """A weighted sum a_1*P_m(x_1) + ... + a_n*P_m(x_n), coefficients sorted ascending."""

    m: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 3:
            raise ValueError(f"polygon order must be >= 3, got {self.m}")
        if not self.coeffs:
            raise ValueError("a form needs at least one coefficient")
        if any(a < 1 for a in self.coeffs):
            raise ValueError(f"coefficients must be positive: {self.coeffs}")
        if any(a > b for a, b in zip(self.coeffs, self.coeffs[1:])):
            raise ValueError(f"coefficients must be sorted ascending: {self.coeffs}")

    @classmethod
    def make(cls, m: int, coeffs) -> "MgonalForm":
        """Build a form from any coefficient iterable, sorting into canonical order."""
        return cls(m, tuple(sorted(int(a) for a in coeffs)))

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    @property
    def coeff_sum(self) -> int:
        return sum(self.coeffs)

    @property
    def coeff_gcd(self) -> int:
        return reduce(math.gcd, self.coeffs)

    def label(self) -> str:
        return f"<{','.join(map(str, self.coeffs))}>_{self.m}"

    def evaluate(self, xs) -> int:
        xs = tuple(xs)
        if len(xs) != self.rank:
            raise ValueError(f"expected {self.rank} variables, got {len(xs)}")
        return sum(a * polygonal_number(self.m, x) for a, x in zip(self.coeffs, xs))


@dataclass(frozen=True)
class Decomposition:
    """N written as A*(m-2) + B with 0 <= B <= m-3 (B = 0 forced when m = 3)."""

    A: int
    B: int
    m: int

    @property
    def value(self) -> int:
        return self.A * (self.m - 2) + self.B


def polygonal_number(m: int, x: int) -> int:
    """The x-th m-gonal number (m-2)(x^2-x)/2 + x, exact for any integer x."""
    if m < 3:
        raise ValueError(f"polygon order must be >= 3, got {m}")
    # x^2 - x is always even, so the division is exact.
    return (m - 2) * (x * x - x) // 2 + x


def is_polygonal(m: int, n: int, domain: Domain = Domain.NONNEG) -> int | None:
    """Invert polygonal_number: the x in the domain with P_m(x) = n, else None.

    Solves (m-2)x^2 - (m-4)x - 2n = 0 with an exact integer square-root test
    on the discriminant.  For Domain.INT the root of smallest magnitude wins,
    preferring the nonnegative one on ties (e.g. P_3(-x) = P_3(x-1)).
    """
    if m < 3:
        raise ValueError(f"polygon order must be >= 3, got {m}")
    if n < 0:
        return None
    disc = (m - 4) * (m - 4) + 8 * n * (m - 2)
    if disc < 0:
        return None
    s = math.isqrt(disc)
    if s * s != disc:
        return None
    den = 2 * (m - 2)
    candidates = []
    for num in ((m - 4) + s, (m - 4) - s):
        if num % den == 0:
            x = num // den
            if domain is Domain.INT or x >= 0:
                candidates.append(x)
    if not candidates:
        return None
    return min(candidates, key=lambda x: (abs(x), x < 0))


def decompose(m: int, n: int) -> Decomposition:
    """Canonical split n = A*(m-2) + B with 0 <= B <= m-3."""
    if m < 3:
        raise ValueError(f"polygon order must be >= 3, got {m}")
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    return Decomposition(A=n // (m - 2), B=n % (m - 2), m=m)


def polygonal_values(m: int, bound: int, domain: Domain = Domain.NONNEG) -> list[int]:
    """All distinct values P_m(x) <= bound over the domain, ascending (0 included).

    Walks x = 0, 1, ... and then, for Domain.INT, x = -1, -2, ..., stepping
    P_m by its exact first difference.
    """
    if m < 3:
        raise ValueError(f"polygon order must be >= 3, got {m}")
    values = []
    v, x = 0, 0
    while v <= bound:
        values.append(v)
        v += (m - 2) * x + 1  # P_m(x + 1) - P_m(x)
        x += 1
    if domain is Domain.INT:
        v, x = m - 3, -1
        while v <= bound:
            values.append(v)
            x -= 1
            v -= (m - 2) * x + 1  # P_m(x) - P_m(x + 1)
        # two ascending runs, which share values for m <= 4
        values = sorted(dict.fromkeys(values))
    return values
