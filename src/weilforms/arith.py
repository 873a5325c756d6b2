"""Small number-theoretic helpers shared across the package.

Everything here is elementary (trial division scale); the moduli we meet
stay below a few thousand.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi expects n >= 1")
    out = 1
    for p, e in factorize(n).items():
        out *= (p - 1) * p ** (e - 1)
    return out


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius expects n >= 1")
    mu = 1
    for _, e in factorize(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


def inverse_mod(a: int, n: int) -> int:
    """Inverse of a modulo n; raises ValueError if gcd(a, n) != 1."""
    a %= n
    if gcd(a, n) != 1:
        raise ValueError(f"{a} not invertible mod {n}")
    return pow(a, -1, n)


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n >= 1 as s^2 * f with f squarefree; returns (s, f)."""
    s = f = 1
    for p, e in factorize(n).items():
        s *= p ** (e // 2)
        if e % 2:
            f *= p
    return s, f


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), the standard extension of the Jacobi symbol.

    Follows the classical binary-style algorithm; agrees with the Jacobi
    symbol for odd n > 0 and handles n <= 0 and even n by the usual
    conventions ((a/2) = 0, 1, -1 for a even, a = +-1 mod 8, a = +-3 mod 8).
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # strip factors of two from n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # standard Jacobi loop
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def integer_matrix_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(row + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (m[row][col] * m[r][c] - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = m[row][col]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank
