"""The discriminant form (Z/2mZ, Q) with Q(x) = x^2/4m.

This is the finite quadratic module underlying lattices of odd rank with
cyclic discriminant group of order 2m; the default ambient signature is
(2, 1), so b+ - b- = 1 = signature of Q mod 8 and Milgram's formula

    sum_gamma e(Q(gamma)) = sqrt(2m) * e((b+ - b-)/8)

holds.  Other signatures are accepted for negative controls but are not
required to be consistent with Q.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .cyclo import CyclotomicNumber


class DiscriminantForm:
    """Immutable container for (Z/2mZ, x^2/4m) plus an ambient signature."""

    __slots__ = ("_m", "_signature")

    def __init__(self, m: int, signature: tuple[int, int] = (2, 1)):
        if not isinstance(m, int) or m < 1:
            raise ValueError("index m must be a positive integer")
        bp, bm = signature
        if bp < 0 or bm < 0:
            raise ValueError("signature components must be non-negative")
        self._m = m
        self._signature = (bp, bm)

    @property
    def m(self) -> int:
        return self._m

    @property
    def signature(self) -> tuple[int, int]:
        return self._signature

    @property
    def signature_delta(self) -> int:
        """b+ - b-; 1 for the default signature (2, 1)."""
        bp, bm = self._signature
        return bp - bm

    @property
    def size(self) -> int:
        """Order of the group Z/2mZ."""
        return 2 * self._m

    @property
    def level(self) -> int:
        return 4 * self._m

    @property
    def field_order(self) -> int:
        """Order of the cyclotomic field all session values live in."""
        return lcm(8, 4 * self._m)

    def signature_consistent(self) -> bool:
        """Whether b+ - b- matches the signature of Q modulo 8."""
        return self.signature_delta % 8 == 1

    def q_value(self, gamma: int) -> Fraction:
        """Q(gamma) = gamma^2 / 4m as a fraction in [0, 1)."""
        return Fraction(gamma * gamma, 4 * self._m) % 1

    def s_factor(self, gamma: int) -> int:
        """2 unless gamma is its own negative mod 2m (gamma = 0 or m)."""
        return 1 if gamma % (2 * self._m) in (0, self._m) else 2

    # -- Milgram --------------------------------------------------------

    def milgram_sum(self) -> CyclotomicNumber:
        """sum_{gamma mod 2m} e(Q(gamma)), exactly."""
        from .cyclo import CyclotomicNumber

        n = 4 * self._m
        counts: dict[int, int] = {}
        for gamma in range(2 * self._m):
            e = gamma * gamma % n
            counts[e] = counts.get(e, 0) + 1
        return CyclotomicNumber.from_exponent_dict(n, counts)

    def milgram_rhs(self) -> CyclotomicNumber:
        """sqrt(|group|) * e((b+ - b-)/8), exactly."""
        from .cyclo import root_of_unity, sqrt_nat

        return sqrt_nat(2 * self._m) * root_of_unity(self.signature_delta, 8)

    def milgram_check(self) -> bool:
        """Exact equality of the Gauss sum with the signature prediction."""
        return self.milgram_sum() == self.milgram_rhs()

    def __eq__(self, other):
        if not isinstance(other, DiscriminantForm):
            return NotImplemented
        return self._m == other._m and self._signature == other._signature

    def __hash__(self):
        return hash((self._m, self._signature))

    def __repr__(self):
        return f"DiscriminantForm(m={self._m}, signature={self._signature})"


@lru_cache(maxsize=None)
def square_classes(m: int, k: int) -> frozenset[int]:
    """Residues n mod 4m with (-1)^k n congruent to a square mod 4m.

    These index the plus-space support conditions: a scalar coefficient
    c(n) may be nonzero only if n mod 4m lies in square_classes(m, k).
    """
    sign = -1 if k % 2 else 1
    squares = {x * x % (4 * m) for x in range(2 * m)}
    return frozenset(n % (4 * m) for n in range(4 * m) if (sign * n) % (4 * m) in squares)
