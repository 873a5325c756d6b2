"""The metaplectic double cover Mp2(Z) of SL2(Z).

Elements are pairs (M, phi) with M = (a b; c d) integral of determinant one
and phi a holomorphic square root of c*tau + d on the upper half plane.  We
encode phi by a sign eps relative to the principal branch, with the
convention that for c = 0, d < 0 the principal value is i*sqrt(|d|) (the
limit from the upper half plane).

Products are exact; no point is sampled.  In (M1, phi1)(M2, phi2) write
w1 = c1*M2(tau) + d1 and w2 = c2*tau + d2, so w1*w2 = c3*tau + d3.  The
argument of w lies in (0, pi) for c > 0, in (-pi, 0) for c < 0, and is 0 or
pi for c = 0 and d > 0 or d < 0.  The principal roots multiply to minus the
principal root of w1*w2 exactly when arg w1 + arg w2 leaves (-pi, pi],
which the signs of c1, d1, c2, d2 and c3 decide (_branch_sign).

Words are run-length: a tuple of (generator, exponent) runs over

    T = ((1 1; 0 1), 1),   S = ((0 -1; 1 0), sqrt(tau))

with nonzero exponents and no two adjacent runs on the same generator,
produced by continued-fraction reduction of the bottom row.  The center is
generated by Z = S^2 = ((-1 0; 0 -1), i) with Z^4 = 1, and the residual
Z-power of a word is kept explicit rather than expanded into S's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class MpElement:
    a: int
    b: int
    c: int
    d: int
    eps: int = 1

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("matrix must have determinant 1")
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")

    @property
    def matrix(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def inv(self) -> "MpElement":
        cand = MpElement(self.d, -self.b, -self.c, self.a, 1)
        if mp_mul(self, cand) == MP_IDENTITY:
            return cand
        return MpElement(self.d, -self.b, -self.c, self.a, -1)

    def __repr__(self):
        sign = "+" if self.eps == 1 else "-"
        return f"MpElement(({self.a} {self.b}; {self.c} {self.d}), {sign})"


def mp_tilde(matrix: tuple[int, int, int, int]) -> MpElement:
    """The standard lift (M, principal sqrt(c*tau + d))."""
    a, b, c, d = matrix
    return MpElement(a, b, c, d, 1)


def _branch_sign(c1: int, d1: int, c2: int, d2: int, c3: int) -> int:
    """sqrt(w1) sqrt(w2) / sqrt(w1 w2) for principal roots (see the module docstring)."""
    if c1 == 0 and d1 < 0:  # arg w1 = pi
        return -1 if c2 > 0 or (c2 == 0 and d2 < 0) else 1
    if c2 == 0 and d2 < 0:  # arg w2 = pi
        return -1 if c1 > 0 else 1
    if c1 > 0 and c2 > 0:
        return -1 if c3 < 0 else 1
    if c1 < 0 and c2 < 0:
        return -1 if c3 >= 0 else 1
    return 1


def mp_mul(g1: MpElement, g2: MpElement) -> MpElement:
    """Product in Mp2(Z): (M1, phi1)(M2, phi2) = (M1 M2, phi1(M2 tau) phi2(tau))."""
    a = g1.a * g2.a + g1.b * g2.c
    b = g1.a * g2.b + g1.b * g2.d
    c = g1.c * g2.a + g1.d * g2.c
    d = g1.c * g2.b + g1.d * g2.d
    eps = g1.eps * g2.eps * _branch_sign(g1.c, g1.d, g2.c, g2.d, c)
    return MpElement(a, b, c, d, eps)


def mp_pow(g: MpElement, n: int) -> MpElement:
    if n < 0:
        return mp_pow(g.inv(), -n)
    out = MP_IDENTITY
    base = g
    while n:
        if n & 1:
            out = mp_mul(out, base)
        n >>= 1
        if n:
            base = mp_mul(base, base)
    return out


MP_IDENTITY = MpElement(1, 0, 0, 1, 1)
MP_T = MpElement(1, 1, 0, 1, 1)
MP_S = MpElement(0, -1, 1, 0, 1)
MP_Z = mp_mul(MP_S, MP_S)  # ((-1 0; 0 -1), i); generates the center, order 4
_S_POWERS = tuple(mp_pow(MP_S, k) for k in range(8))  # S has order 8, Z^z = S^(2z)


def _t_power(n: int) -> MpElement:
    return MpElement(1, n, 0, 1, 1)


def _append_run(runs: list, gen: str, e: int) -> None:
    """Append gen^e to runs, merging with a last run on the same generator."""
    if runs and runs[-1][0] == gen:
        e += runs.pop()[1]
    if e:
        runs.append((gen, e))


@dataclass(frozen=True)
class Word:
    """A word of (generator, exponent) runs over {S, T} and a residual center power.

    The element represented is (product of runs, left to right) * Z^z_power.
    """

    runs: tuple[tuple[str, int], ...]
    z_power: int = 0

    def __post_init__(self):
        prev = None
        for gen, e in self.runs:
            if gen not in ("S", "T"):
                raise ValueError(f"bad generator {gen!r}")
            if not isinstance(e, int) or e == 0:
                raise ValueError(f"exponent of {gen} must be a nonzero integer, got {e!r}")
            if gen == prev:
                raise ValueError(f"adjacent runs on {gen} must be merged")
            prev = gen
        if self.z_power not in (0, 1, 2, 3):
            raise ValueError("z_power must lie in 0..3")

    def __len__(self):
        return len(self.runs)

    def to_element(self) -> MpElement:
        out = MP_IDENTITY
        for gen, e in self.runs:
            out = mp_mul(out, _t_power(e) if gen == "T" else _S_POWERS[e % 8])
        return mp_mul(out, _S_POWERS[2 * self.z_power])


def parse_word(text: str) -> Word:
    """Parse a whitespace-separated string of S, S', T, T' and Z tokens.

    Tokens merge into runs; Z tokens fold into z_power, since Z is central.
    """
    runs: list[tuple[str, int]] = []
    zp = 0
    for t in text.split():
        if t == "Z":
            zp += 1
        elif t in ("S", "S'", "T", "T'"):
            _append_run(runs, t[0], -1 if t.endswith("'") else 1)
        else:
            raise ValueError(f"unknown token {t!r}")
    return Word(tuple(runs), zp % 4)


def mp_decompose(g: MpElement) -> Word:
    """Write g as a word in S, T and a residual center power, exactly.

    The bottom row is reduced by a nearest-integer continued fraction, so
    the number of runs is O(log of the largest entry).
    """
    r = g
    applied: list[tuple[str, int]] = []  # right factors, in application order
    while r.c != 0:
        q = round(Fraction(r.d, r.c))
        if q:
            r = mp_mul(r, _t_power(-q))
            applied.append(("T", -q))
        r = mp_mul(r, MP_S)
        applied.append(("S", 1))
    # r is now upper triangular: (1, e; 0, 1) = T^e Z^(0 or 2), or
    # (-1, e; 0, -1) = Z^(1 or 3) T^(-e), and Z commutes into z_power
    runs: list[tuple[str, int]] = []
    if r.a == 1:
        _append_run(runs, "T", r.b)
        zbase = 0 if r.eps == 1 else 2
    else:
        _append_run(runs, "T", -r.b)
        zbase = 1 if mp_mul(MP_Z, _t_power(-r.b)) == r else 3
    for gen, e in reversed(applied):
        _append_run(runs, gen, -e)
    word = Word(tuple(runs), zbase)
    if word.to_element() != g:  # pragma: no cover - exactness guard
        raise ArithmeticError("decomposition failed to reproduce the element")
    return word
