"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in the power basis 1, z, ..., z^(phi(N)-1) of Q(zeta_N),
z = exp(2 pi i / N), with Fraction coefficients, always reduced modulo the
N-th cyclotomic polynomial.  The cyclotomic polynomial is computed once per
order by Moebius-factor division of x^N - 1 and cached together with a
reduction table for the exponents phi(N) .. N-1.

Square roots of positive integers are realized exactly: sqrt(2) as
z8 + z8^-1 and sqrt(p) for odd primes p through the quadratic Gauss sum
sum_x e(x^2/p), whose sign is classical (Gauss).  Mixed-order arithmetic
lifts both operands to the lcm order, so a session working over the
discriminant form of index m lands in Q(zeta_lcm(8, 4m)) automatically.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from numbers import Rational

from .arith import euler_phi, factorize, moebius, squarefree_decompose

__all__ = [
    "CyclotomicNumber",
    "cyclotomic_polynomial",
    "root_of_unity",
    "sqrt_nat",
    "canonical_exponent_dict",
]


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (remainder must vanish)."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    qdeg = len(num) - 1 - dd
    quo = [0] * (qdeg + 1)
    for i in range(qdeg, -1, -1):
        c = num[i + dd]
        if c % lead:
            raise ArithmeticError("non-exact polynomial division")
        c //= lead
        quo[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return quo


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first.

    Phi_n(x) = prod_{d | n} (x^(n/d) - 1)^moebius(d).
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    num = [1]
    dens = []
    for d in range(1, n + 1):
        if n % d:
            continue
        mu = moebius(d)
        if mu == 0:
            continue
        factor = [-1] + [0] * (n // d - 1) + [1]
        if mu == 1:
            num = _poly_mul(num, factor)
        else:
            dens.append(factor)
    for den in dens:
        num = _poly_div_exact(num, den)
    assert len(num) == euler_phi(n) + 1 and num[-1] == 1
    return tuple(num)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> dict[int, tuple[tuple[int, int], ...]]:
    """x^e mod Phi_n for e in [phi(n), n), as the nonzero (j, c) of each row."""
    poly = cyclotomic_polynomial(n)
    phi = len(poly) - 1
    base = [-c for c in poly[:-1]]
    cur = base
    rows: dict[int, tuple[tuple[int, int], ...]] = {}
    for e in range(phi, n):
        if e > phi:
            top = cur[phi - 1]
            cur = [0] + cur[:-1]
            if top:
                cur = [x + top * y for x, y in zip(cur, base)]
        rows[e] = tuple((j, c) for j, c in enumerate(cur) if c)
    return rows


def canonical_exponent_dict(n: int, d: dict) -> dict:
    """Reduce a formal sum {e: c} of powers zeta_n^e into the power basis.

    Exponents may be arbitrary integers; the result maps basis exponents
    j < phi(n) to nonzero coefficients.  Coefficient arithmetic follows the
    input types (ints stay ints).
    """
    phi = euler_phi(n)
    out = [0] * phi
    rows = _reduction_rows(n) if n > 1 else None
    for e, c in d.items():
        if not c:
            continue
        e %= n
        if e < phi:
            out[e] = out[e] + c
        else:
            for j, r in rows[e]:
                out[j] = out[j] + c * r
    return {j: c for j, c in enumerate(out) if c}


class CyclotomicNumber:
    """An element of Q(zeta_N) in reduced power-basis form.

    Instances are immutable; arithmetic across different orders lifts to
    the lcm.  Construct through the classmethods or module helpers rather
    than calling the raw constructor with unreduced data.
    """

    __slots__ = ("_order", "_coeffs")

    def __init__(self, order: int, coeffs):
        phi = euler_phi(order)
        tup = tuple(Fraction(c) for c in coeffs)
        if len(tup) != phi:
            raise ValueError(f"need {phi} coefficients for order {order}")
        self._order = order
        self._coeffs = tup

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rational(cls, x, order: int = 1) -> "CyclotomicNumber":
        coeffs = [Fraction(x)] + [Fraction(0)] * (euler_phi(order) - 1)
        return cls(order, coeffs)

    @classmethod
    def zero(cls, order: int = 1) -> "CyclotomicNumber":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CyclotomicNumber":
        return cls.from_rational(1, order)

    @classmethod
    def from_exponent_dict(cls, order: int, d: dict) -> "CyclotomicNumber":
        red = canonical_exponent_dict(order, d)
        coeffs = [Fraction(0)] * euler_phi(order)
        for j, c in red.items():
            coeffs[j] = Fraction(c)
        return cls(order, coeffs)

    # -- basic structure ------------------------------------------------

    @property
    def order(self) -> int:
        return self._order

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    def is_rational(self) -> bool:
        return not any(self._coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self._coeffs[0]

    def lift(self, order: int) -> "CyclotomicNumber":
        """Rewrite in Q(zeta_order); requires self.order | order."""
        if order == self._order:
            return self
        if order % self._order:
            raise ValueError(f"{self._order} does not divide {order}")
        k = order // self._order
        d: dict[int, Fraction] = {}
        for j, c in enumerate(self._coeffs):
            if c:
                d[j * k] = c
        return CyclotomicNumber.from_exponent_dict(order, d)

    def _pair(self, other):
        n = lcm(self._order, other._order)
        return self.lift(n), other.lift(n)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        return CyclotomicNumber(a._order, [x + y for x, y in zip(a._coeffs, b._coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self._order, [-c for c in self._coeffs])

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Rational):
            q = Fraction(other)
            return CyclotomicNumber(self._order, [c * q for c in self._coeffs])
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._pair(other)
        n = a._order
        asup = [j for j, c in enumerate(a._coeffs) if c]
        bsup = [j for j, c in enumerate(b._coeffs) if c]
        if not asup or not bsup:
            return CyclotomicNumber.zero(n)
        # monomial fast path: a single term acts by an exponent shift
        if len(asup) == 1 or len(bsup) == 1:
            if len(bsup) == 1:
                a, b = b, a
                asup = bsup
            e0 = asup[0]
            c0 = a._coeffs[e0]
            d = {e0 + j: c0 * c for j, c in enumerate(b._coeffs) if c}
            return CyclotomicNumber.from_exponent_dict(n, d)
        da = lcm(*[c.denominator for c in a._coeffs if c] or [1])
        db = lcm(*[c.denominator for c in b._coeffs if c] or [1])
        na = [int(c * da) for c in a._coeffs]
        nb = [int(c * db) for c in b._coeffs]
        conv: dict[int, int] = {}
        for i in asup:
            ci = na[i]
            for j in bsup:
                k = i + j
                conv[k] = conv.get(k, 0) + ci * nb[j]
        red = canonical_exponent_dict(n, conv)
        scale = Fraction(1, da * db)
        coeffs = [Fraction(0)] * euler_phi(n)
        for j, c in red.items():
            coeffs[j] = c * scale
        return CyclotomicNumber(n, coeffs)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Rational):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError("division by zero")
            return self * Fraction(q.denominator, q.numerator)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = CyclotomicNumber.one(self._order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def conj(self) -> "CyclotomicNumber":
        """Complex conjugate (the automorphism zeta -> zeta^-1)."""
        n = self._order
        d = {(n - j) % n: c for j, c in enumerate(self._coeffs) if c}
        return CyclotomicNumber.from_exponent_dict(n, d)

    # -- comparison -----------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        return a._coeffs == b._coeffs

    __hash__ = None  # mixed-order equality makes a stable hash awkward

    # -- numeric embedding ----------------------------------------------

    def embed_mpc(self, precision: int = 53) -> mpc:
        """Numeric value at zeta_N = exp(2 pi i/N), certified to `precision` bits.

        The working precision is raised until the accumulated roundoff
        bound drops below 2^(-precision+4) relative to the result.
        """
        from mpmath import mp, mpc, mpf

        if self.is_zero():
            return mpc(0)
        terms = [(j, c) for j, c in enumerate(self._coeffs) if c]
        n = self._order
        wp = precision + 12 + max(len(terms).bit_length(), 4)
        while True:
            with mp.workprec(wp):
                total = mpc(0)
                scale = mpf(0)
                for j, c in terms:
                    cf = mpf(c.numerator) / c.denominator
                    total += cf * _unit_root_mpc(2 * j, n)
                    scale += abs(cf)
                err = scale * mpf(2) ** (-wp + 3) * (len(terms) + 2)
                ok = abs(total) > 0 and err <= abs(total) * mpf(2) ** (-precision + 4)
            if ok:
                with mp.workprec(precision):
                    return +total
            wp *= 2

    def embed(self, precision: int = 53) -> complex:
        """Value as a Python complex; certified internally, then rounded."""
        if precision < 53:
            raise ValueError("precision below double precision is not supported")
        return complex(self.embed_mpc(precision))

    # -- serialization / display ----------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "N": self._order,
            "coeffs": [[str(c), j] for j, c in enumerate(self._coeffs) if c],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CyclotomicNumber":
        n = int(data["N"])
        d = {int(j): Fraction(s) for s, j in data["coeffs"]}
        return cls.from_exponent_dict(n, d)

    def __repr__(self):
        if self.is_zero():
            return "CyclotomicNumber(0)"
        parts = []
        for j, c in enumerate(self._coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"z{self._order}^{j}")
            else:
                parts.append(f"{c}*z{self._order}^{j}")
        return f"CyclotomicNumber({' + '.join(parts)})"


def _coerce(x):
    if isinstance(x, CyclotomicNumber):
        return x
    if isinstance(x, Rational):
        return CyclotomicNumber.from_rational(x)
    return NotImplemented


def _unit_root_mpc(two_j: int, n: int) -> mpc:
    # exp(pi i * 2j/n) at current mpmath working precision
    from mpmath import expjpi, mpf

    return expjpi(mpf(two_j) / n)


def root_of_unity(p: int, q: int) -> CyclotomicNumber:
    """e(p/q) = exp(2 pi i p/q) as an exact cyclotomic number of order q."""
    if q < 1:
        raise ValueError("root_of_unity needs q >= 1")
    return CyclotomicNumber.from_exponent_dict(q, {p % q: 1})


@lru_cache(maxsize=None)
def _sqrt_two() -> CyclotomicNumber:
    return root_of_unity(1, 8) + root_of_unity(7, 8)


@lru_cache(maxsize=None)
def _sqrt_odd_prime(p: int) -> CyclotomicNumber:
    # Quadratic Gauss sum g = sum_x e(x^2/p); g = sqrt(p) for p = 1 (4)
    # and i*sqrt(p) for p = 3 (4), with the classical sign.
    counts: dict[int, int] = {}
    for x in range(p):
        e = x * x % p
        counts[e] = counts.get(e, 0) + 1
    g = CyclotomicNumber.from_exponent_dict(p, counts)
    if p % 4 == 3:
        g = g * root_of_unity(3, 4)  # multiply by -i
    return g


@lru_cache(maxsize=None)
def sqrt_nat(n: int) -> CyclotomicNumber:
    """Exact positive square root of a positive integer."""
    if n <= 0:
        raise ValueError("sqrt_nat needs n > 0")
    s, f = squarefree_decompose(n)
    out = CyclotomicNumber.from_rational(s)
    if f % 2 == 0:
        out = out * _sqrt_two()
        f //= 2
    for p in factorize(f):
        out = out * _sqrt_odd_prime(p)
    return out
