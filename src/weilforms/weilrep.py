"""The Weil representation rho_L of Mp2(Z) on C[Z/2mZ], exactly.

Generator action on the standard basis (e_gamma), with sigma = b+ - b-:

    rho(T) e_gamma = e(Q(gamma)) e_gamma
    rho(S) e_gamma = (e(-sigma/8)/sqrt(2m)) sum_delta e(-(gamma,delta)) e_delta

Each generator is defined once, as a matrix (rho_T, rho_S, rho_Z), and a
word is evaluated by multiplying those matrices along it (_apply_word).
The center acts by the signed permutation rho(Z) e_gamma =
e(-sigma/4) e_{-gamma}, which is rho(S)^2 without the dense products.
An arbitrary element g~ is evaluated as K~ M~_1: M_1 is a coset
representative of Gamma_0(4m) in SL2(Z) whose word holds at most two S
factors, and K = g M_1^-1 lies in Gamma_0(4m), where rho is the monomial
matrix of rho_gamma0.  So the cost does not grow with the entries of g.
A form whose signature is inconsistent with Q (a negative control) has
no such closed form and is evaluated along the word from mp_decompose.
The dual representation conjugates every entry after evaluation.

Matrices are stored in a scaled-integer form: entries are formal integer
combinations of powers of zeta_N (N = lcm(8, 4m)) with a global prefactor
(e(-sigma/8)/sqrt(2m))^s_power, where s_power counts the S-factors used.
Weil matrices are 2m x 2m; the character matrices of isomap use the same
form at other shapes (phi(4m) x 2m and back), and a one-column table is a
vector.  WeilMatrix.__matmul__ is the only product: it convolves integer
exponent tables and re-reduces each output row into the power basis,
except a row whose left row holds a single term, which is a shifted copy
of a right row and stays as small as that row.  A row of monomials adds
shifted right rows; every other row multiplies by Kronecker substitution,
one Python integer per entry with one digit per power of zeta_N, so a sum
of products is a few big-integer operations rather than a dict loop per
pair of terms.  Equality compares the tables themselves once the
prefactor powers are aligned.  Entries are materialized per matrix: the
prefactor becomes integer coordinates over one denominator once, each
table times it reduces on integers into one exact CyclotomicNumber, and
embed shares one table of unit roots among all entries.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .arith import kronecker
from .cyclo import (CyclotomicNumber, canonical_exponent_dict, embed_with_roots,
                    root_of_unity, sqrt_nat)
from .discform import DiscriminantForm
from .metaplectic import MpElement, Word, mp_decompose, mp_mul, mp_tilde

__all__ = [
    "WeilMatrix",
    "rho_T",
    "rho_S",
    "rho_Z",
    "rho_eval",
    "rho_gamma0",
    "shintani_unipotent",
    "borcherds_eigencheck",
]


@lru_cache(maxsize=None)
def _prefactor_power(m: int, sigma: int, t: int) -> CyclotomicNumber:
    """(e(-sigma/8)/sqrt(2m))^t as an exact cyclotomic number."""
    phase = root_of_unity(-sigma * t, 8)
    if t % 2 == 0:
        return phase * Fraction(1, (2 * m) ** (t // 2))
    return phase * sqrt_nat(2 * m) * Fraction(1, (2 * m) ** ((t + 1) // 2))


def _add_shifted(acc: dict, d: dict, s: int, a: int, n: int) -> None:
    """acc += a zeta^s d, on exponent dicts."""
    for e, c in d.items():
        k = (e + s) % n
        v = acc.get(k, 0) + a * c
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)


def _pack(d: dict, w: int, n: int) -> int:
    return sum(c << (w * (e % n)) for e, c in d.items())


class WeilMatrix:
    """A matrix over Q(zeta_lcm(8,4m)) in scaled-integer form.

    Weil matrices are 2m x 2m, but any rectangular table works: products
    need matching inner sizes, and tables of different shapes are unequal.
    `dim` is the size 2m of the discriminant form, not of the table.
    """

    __slots__ = ("df", "_raw", "_s_power", "dual", "_entries")

    def __init__(self, df: DiscriminantForm, raw, s_power: int, dual: bool = False):
        self.df = df
        self._raw = raw
        self._s_power = s_power
        self.dual = dual
        self._entries = None

    @property
    def dim(self) -> int:
        return self.df.size

    @property
    def shape(self) -> tuple[int, int]:
        return len(self._raw), len(self._raw[0])

    @property
    def order(self) -> int:
        return self.df.field_order

    def entry(self, i: int, j: int) -> CyclotomicNumber:
        return self.entries()[i][j]

    def entries(self) -> list[list[CyclotomicNumber]]:
        """Materialize all entries as exact cyclotomic numbers (cached).

        The prefactor is lifted to order N once, as integer coordinates P
        over one denominator; each entry is its raw table times P on
        integers, reduced once, with one Fraction per nonzero coordinate.
        """
        if self._entries is None:
            n = self.order
            pref = _prefactor_power(self.df.m, self.df.signature_delta, self._s_power)
            coords = pref.lift(n).coefficients
            den = lcm(*(c.denominator for c in coords))
            p = {j: c.numerator * (den // c.denominator) for j, c in enumerate(coords) if c}
            zero = Fraction(0)

            def entry(d):
                acc: dict[int, int] = {}
                for e, c in d.items():
                    _add_shifted(acc, p, e, c, n)
                coeffs = [zero] * len(coords)
                for j, c in canonical_exponent_dict(n, acc).items():
                    coeffs[j] = Fraction(c, den)
                return CyclotomicNumber(n, coeffs)

            self._entries = [[entry(d) for d in row] for row in self._raw]
        return self._entries

    def __matmul__(self, other: "WeilMatrix") -> "WeilMatrix":
        """The product; other may have any number of columns (one is a vector).

        A row of monomials adds shifted, scaled right rows (one term: a
        copy).  Any other row multiplies by Kronecker substitution: an
        entry sum c zeta^e packs into the integer sum c 2^(w (e mod n)),
        each output entry sums products of packed entries as one integer,
        and its residue mod 2^(w n) - 1 folds the exponents mod n.  No
        folded coefficient exceeds B = max_i sum_k |L_ik|_1 max_kj |R_kj|_1
        in absolute value, so w = bitlen(B) + 2 reads each one back as a
        balanced w-bit digit.
        """
        if not isinstance(other, WeilMatrix):
            return NotImplemented
        if self.df != other.df:
            raise ValueError("matrices live over different discriminant forms")
        if self.shape[1] != other.shape[0]:
            raise ValueError("inner sizes of the product differ")
        n = self.order
        b = other._raw
        packed = None
        out = []
        for row in self._raw:
            terms = [(k, d) for k, d in enumerate(row) if d]
            if len(terms) == 1 and len(terms[0][1]) == 1:
                # one term (T, Z, S S): a shifted, scaled copy of one right row,
                # unless two exponents of an entry meet mod n (summed below)
                k, d = terms[0]
                ((s, c),) = d.items()
                copy = [{(e + s) % n: c * x for e, x in r.items()} for r in b[k]]
                if list(map(len, copy)) == list(map(len, b[k])):
                    out.append(copy)
                    continue
            if all(len(d) == 1 for _, d in terms):
                # monomials only (S, S^-1): shifts cost less than packing
                acc = [{} for _ in b[0]]
                for k, left in terms:
                    ((s, a),) = left.items()
                    for dest, right in zip(acc, b[k]):
                        if right:
                            _add_shifted(dest, right, s, a, n)
                out.append([canonical_exponent_dict(n, d) for d in acc])
                continue
            if packed is None:
                bound = max(sum(sum(map(abs, d.values())) for d in r) for r in self._raw)
                bound *= max(sum(map(abs, d.values())) for r in b for d in r)
                w = bound.bit_length() + 2
                packed = [[_pack(d, w, n) for d in r] for r in b]
                mask, half, top = (1 << w) - 1, 1 << (w - 1), (1 << (w * n)) - 1
                offset = half * (top // mask)  # half in every digit
            sums = [0] * len(b[0])
            for k, left in terms:
                pl = _pack(left, w, n)
                sums = [y + pl * x for y, x in zip(sums, packed[k])]
            reduced = []
            for x in sums:
                digits = {}
                if x:
                    x = (x + offset) % top
                    for e in range(n):
                        c = (x & mask) - half
                        if c:
                            digits[e] = c
                        x >>= w
                reduced.append(canonical_exponent_dict(n, digits))
            out.append(reduced)
        return WeilMatrix(self.df, out, self._s_power + other._s_power, self.dual)

    def conjugate(self) -> "WeilMatrix":
        """Entrywise complex conjugate (the dual-representation matrix)."""
        n = self.order
        # conj(pref^t) = pref^t * e(sigma/4)^t, so fold that phase into the raws
        shift = (self._s_power * self.df.signature_delta * (n // 4)) % n
        out = [
            [
                canonical_exponent_dict(
                    n, {(shift - e) % n: c for e, c in d.items()}
                )
                for d in row
            ]
            for row in self._raw
        ]
        return WeilMatrix(self.df, out, self._s_power, not self.dual)

    def conjugate_transpose(self) -> "WeilMatrix":
        conj = self.conjugate()
        raw = [list(col) for col in zip(*conj._raw)]
        return WeilMatrix(self.df, raw, conj._s_power, conj.dual)

    def is_identity(self) -> bool:
        return self == identity_matrix(self.df)

    def is_unitary(self) -> bool:
        return (self @ self.conjugate_transpose()).is_identity()

    def __eq__(self, other):
        if not isinstance(other, WeilMatrix):
            return NotImplemented
        if self.df != other.df or self.shape != other.shape:
            return False
        # raw_a P^sa = raw_b P^sb with P = e(-sigma/8)/sqrt(2m) and sa >= sb
        # is e(-sigma d/8) sqrt(2m)^(d mod 2) raw_a = (2m)^ceil(d/2) raw_b
        hi, lo = (self, other) if self._s_power >= other._s_power else (other, self)
        d = hi._s_power - lo._s_power
        n = self.order
        shift = (-self.df.signature_delta * d * (n // 8)) % n
        root = {0: 1}
        if d % 2:  # sqrt(2m) has integer coordinates in Q(zeta_n)
            sqrt = sqrt_nat(2 * self.df.m).lift(n).coefficients
            root = {j: int(c) for j, c in enumerate(sqrt) if c}
        scale = (2 * self.df.m) ** ((d + 1) // 2)
        for row_hi, row_lo in zip(hi._raw, lo._raw):
            for x, y in zip(row_hi, row_lo):
                acc: dict[int, int] = {}
                for e, c in root.items():
                    for e2, c2 in x.items():
                        k = e + e2 + shift
                        acc[k] = acc.get(k, 0) + c * c2
                rhs = {e: c * scale for e, c in y.items()}
                if canonical_exponent_dict(n, acc) != canonical_exponent_dict(n, rhs):
                    return False
        return True

    __hash__ = None

    def embed(self, precision: int = 53) -> list[list[complex]]:
        if precision < 53:
            raise ValueError("precision below double precision is not supported")
        return [[complex(v) for v in row] for row in self.embed_mpc(precision)]

    def embed_mpc(self, precision: int = 53):
        """Entrywise embed_mpc, with one table of unit roots for the whole matrix."""
        roots: dict = {}
        return [[embed_with_roots(x, precision, roots) for x in row] for row in self.entries()]

    def to_json_dict(self) -> dict:
        return {
            "m": self.df.m,
            "signature": list(self.df.signature),
            "dual": self.dual,
            "entries": [[x.to_json_dict() for x in row] for row in self.entries()],
        }

    def __repr__(self):
        return f"WeilMatrix(m={self.df.m}, dim={self.dim}, s_power={self._s_power})"


# -- generator matrices -------------------------------------------------


def identity_matrix(df: DiscriminantForm) -> WeilMatrix:
    return rho_Z(df, 0)


def rho_T(df: DiscriminantForm, power: int = 1) -> WeilMatrix:
    """Diagonal generator: rho(T)^power e_gamma = e(power Q(gamma)) e_gamma."""
    n = df.field_order
    v = n // (4 * df.m)
    dim = df.size
    raw = [
        [{(power * g * g * v) % n: 1} if g == h else {} for h in range(dim)]
        for g in range(dim)
    ]
    return WeilMatrix(df, raw, 0)


def rho_S(df: DiscriminantForm, inverse: bool = False) -> WeilMatrix:
    """rho(S) e_gamma = (e(-sigma/8)/sqrt(2m)) sum_delta e(-(gamma,delta)) e_delta.

    With inverse, rho(S)^-1 = rho(S)^*, whose prefactor is e(sigma/4) times
    that of rho(S); the phase goes into the table, so s_power stays 1.
    """
    n = df.field_order
    u = n // (2 * df.m)
    dim = df.size
    sign, phase = (1, df.signature_delta * (n // 4)) if inverse else (-1, 0)
    raw = [
        [{(sign * d * g * u + phase) % n: 1} for g in range(dim)]
        for d in range(dim)
    ]
    return WeilMatrix(df, raw, 1)


def rho_Z(df: DiscriminantForm, power: int = 1) -> WeilMatrix:
    """The center: rho(Z)^power e_gamma = e(-sigma power/4) e_{(-1)^power gamma}."""
    n = df.field_order
    dim = df.size
    phase = (-df.signature_delta * power * (n // 4)) % n
    sign = -1 if power % 2 else 1
    raw = [
        [{phase: 1} if h == (sign * g) % dim else {} for h in range(dim)]
        for g in range(dim)
    ]
    return WeilMatrix(df, raw, 0)


# -- word evaluation ----------------------------------------------------


def _apply_word(df: DiscriminantForm, word: Word, mat=None) -> WeilMatrix:
    """rho(word) @ mat, with mat the identity by default (one column is a vector).

    Walks word.runs right to left: rho_Z(df, z_power) first (skipped for
    z_power 0), then one product with rho_T(df, e) per T-run and |e|
    products with rho_S(df, e < 0) per S-run (words from mp_decompose have
    only S^-1 runs).
    """
    if mat is None:
        mat = identity_matrix(df)
    if word.z_power:
        mat = rho_Z(df, word.z_power) @ mat
    for gen, e in reversed(word.runs):
        if gen == "T":
            mat = rho_T(df, e) @ mat
        else:
            step = rho_S(df, inverse=e < 0)
            for _ in range(abs(e)):
                mat = step @ mat
    return mat


def rho_gamma0(df: DiscriminantForm, k: MpElement) -> WeilMatrix:
    """rho(K~) for K = (a b; c d) in Gamma_0(4m): a monomial matrix.

        rho(K~) e_gamma = chi(K~) e(bd Q(gamma)) e_{d gamma},
        chi(K~) = eps ((c/m)/d) eps_d^-1

    with eps the sign of the branch of K~ and eps_d = 1 or i for d = 1 or 3
    mod 4 (the monomial shape is Borcherds', Reflection groups of
    Lorentzian lattices).  The character comes from the component
    theta_0(tau) = theta(m tau) of the theta series of (Z, m x^2):
    (a, mb; c/m, d) lies in Gamma_0(4), where theta has Shimura's
    multiplier (c'/d) eps_d^-1 with (c'/d) = -(c'/|d|) for c', d < 0, as
    arith.kronecker computes it.  It holds for sigma = 1 mod 8 only, where
    the generators are those of sigma = 1.
    """
    a, b, c, d = k.matrix
    if c % df.level:
        raise ValueError("element must lie in Gamma_0(4m)")
    if not df.signature_consistent():
        raise ValueError("the closed form needs sigma = 1 mod 8")
    n, dim = df.field_order, df.size
    quarter = (0 if d % 4 == 1 else 3) + (0 if k.eps * kronecker(c // df.m, d) == 1 else 2)
    phase, v, bd = quarter * (n // 4), n // df.level, b * d % df.level
    raw = [[{} for _ in range(dim)] for _ in range(dim)]
    for delta, row in enumerate(raw):  # delta = d gamma, gamma = a delta
        g = a * delta % dim
        row[g] = {(phase + bd * g * g * v) % n: 1}
    return WeilMatrix(df, raw, 0)


def _coset_word(level: int, c: int, d: int) -> Word:
    """A word M_1 with (c, d) M_1^-1 = (0, *) mod level, with fewest S-factors.

    The empty word for c = 0, S T^j with j = d/c for a unit c, and otherwise
    S T^j S T^k, whose bottom row is (j, jk - 1): k makes u = d - kc a unit
    (gcd(c, d) = 1, so k avoids one residue per prime of level not dividing
    c) and j = -c/u.
    """
    c, d = c % level, d % level
    if c == 0:
        runs = ()
    elif gcd(c, level) == 1:
        runs = (("S", 1), ("T", d * pow(c, -1, level) % level))
    else:
        k = next(k for k in range(level) if gcd(d - k * c, level) == 1)
        runs = (("S", 1), ("T", -c * pow(d - k * c, -1, level) % level), ("S", 1), ("T", k))
    return Word(tuple(run for run in runs if run[1]))


def rho_eval(df: DiscriminantForm, g: MpElement, dual: bool = False) -> WeilMatrix:
    """rho_L(g) (or its dual) as an exact matrix.

    g~ = K~ M~_1 with M_1 from _coset_word and K~ = g~ M~_1^-1 in the lift
    of Gamma_0(4m), so rho(g~) = rho_gamma0(K~) rho(M~_1): a word of at most
    two S-factors and one monomial product, whatever the size of g.  A form
    with sigma != 1 mod 8 is evaluated along mp_decompose(g).
    """
    if df.signature_consistent():
        word = _coset_word(df.level, g.c, g.d)
        k = mp_mul(g, word.to_element().inv())
        out = rho_gamma0(df, k) @ _apply_word(df, word)
    else:
        out = _apply_word(df, mp_decompose(g))
    return out.conjugate() if dual else out


# -- closed forms and eigencheck ----------------------------------------


def shintani_unipotent(df: DiscriminantForm, n: int) -> WeilMatrix:
    """rho((1 0; n 1)~) by closed form and matrix powers.

    For n = 1 the (beta, gamma) entry is
        (e(-sigma/8)/sqrt(2m)) e(Q(beta) - (beta,gamma) + Q(gamma)),
    i.e. a prefactor times e((beta-gamma)^2/4m).  General n >= 0 is the
    n-th power, taken by binary powering; negative n uses the conjugate
    transpose (unitarity).
    """
    if n < 0:
        return shintani_unipotent(df, -n).conjugate_transpose()
    if n == 0:
        return identity_matrix(df)
    order = df.field_order
    v = order // (4 * df.m)
    dim = df.size
    raw = [
        [{((b - g) * (b - g) * v) % order: 1} for g in range(dim)]
        for b in range(dim)
    ]
    base = WeilMatrix(df, raw, 1)
    out = None
    while n:
        if n & 1:
            out = base if out is None else out @ base
        n >>= 1
        if n:
            base = base @ base
    return out


def borcherds_eigencheck(
    df: DiscriminantForm, matrix: tuple[int, int, int, int]
) -> tuple[CyclotomicNumber, bool]:
    """Check that the all-ones vector is an eigenvector of the conjugated action.

    For (a b; c d) in Gamma_0(4m) with d > 0, evaluates
    rho((a, 4mb; c/4m, d)~) applied to sum_gamma e_gamma and compares with
    (c/d) * eps_d^-1 times the same vector, where (c/d) is the Kronecker
    symbol and eps_d = 1 or i for d = 1 or 3 mod 4.  Returns the predicted
    eigenvalue and whether the identity holds exactly.
    """
    a, b, c, d = matrix
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    if c % (4 * df.m):
        raise ValueError("matrix must lie in Gamma_0(4m)")
    if d <= 0:
        raise ValueError("require d > 0 (apply the -I normalization first)")
    conj = mp_tilde((a, 4 * df.m * b, c // (4 * df.m), d))
    ones = WeilMatrix(df, [[{0: 1}] for _ in range(df.size)], 0)
    image = _apply_word(df, mp_decompose(conj), ones)
    eps_inv = (
        CyclotomicNumber.one() if d % 4 == 1 else root_of_unity(3, 4)
    )  # eps_d^-1, with eps_d = sqrt((-1/d))
    lam = eps_inv * kronecker(c, d)
    holds = all(row[0] == lam for row in image.entries())
    return lam, holds
