"""The Weil representation rho_L of Mp2(Z) on C[Z/2mZ], exactly.

Generator action on the standard basis (e_gamma), with sigma = b+ - b-:

    rho(T) e_gamma = e(Q(gamma)) e_gamma
    rho(S) e_gamma = (e(-sigma/8)/sqrt(2m)) sum_delta e(-(gamma,delta)) e_delta

Arbitrary elements are evaluated as products of generator matrices along a
word from mp_decompose.  The center acts by the signed permutation
rho(Z) e_gamma = e(-sigma/4) e_{-gamma}, which is rho(S)^2 without the dense
products.  The dual representation conjugates every entry after evaluation
on the same word.

Matrices are stored in a scaled-integer form: entries are formal integer
combinations of powers of zeta_N (N = lcm(8, 4m)) with a global prefactor
(e(-sigma/8)/sqrt(2m))^s_power, where s_power counts the S-factors used.
Products then only ever convolve integer exponent tables, and entries are
re-reduced into the power basis after every step so the tables stay small.
Equality compares the tables themselves once the prefactor powers are
aligned; materialized entries are exact CyclotomicNumbers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .arith import kronecker
from .cyclo import CyclotomicNumber, canonical_exponent_dict, root_of_unity, sqrt_nat
from .discform import DiscriminantForm
from .metaplectic import MpElement, Word, mp_decompose, mp_tilde

__all__ = [
    "WeilMatrix",
    "rho_T",
    "rho_S",
    "rho_Z",
    "rho_eval",
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


def _shift(d: dict, s: int, n: int) -> dict:
    if s == 0:
        return dict(d)
    return {(e + s) % n: c for e, c in d.items()}


def _add_shifted(acc: dict, d: dict, s: int, n: int) -> None:
    for e, c in d.items():
        k = (e + s) % n
        v = acc.get(k, 0) + c
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)


class WeilMatrix:
    """A 2m x 2m matrix over Q(zeta_lcm(8,4m)) in scaled-integer form."""

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
    def order(self) -> int:
        return self.df.field_order

    def _normalize(self) -> None:
        n = self.order
        self._raw = [
            [canonical_exponent_dict(n, d) for d in row] for row in self._raw
        ]

    def entry(self, i: int, j: int) -> CyclotomicNumber:
        return self.entries()[i][j]

    def entries(self) -> list[list[CyclotomicNumber]]:
        """Materialize all entries as exact cyclotomic numbers (cached)."""
        if self._entries is None:
            n = self.order
            pref = _prefactor_power(self.df.m, self.df.signature_delta, self._s_power)
            self._entries = [
                [CyclotomicNumber.from_exponent_dict(n, d) * pref for d in row]
                for row in self._raw
            ]
        return self._entries

    def __matmul__(self, other: "WeilMatrix") -> "WeilMatrix":
        if not isinstance(other, WeilMatrix):
            return NotImplemented
        if self.df != other.df:
            raise ValueError("matrices live over different discriminant forms")
        n = self.order
        dim = self.dim
        a, b = self._raw, other._raw
        out = []
        for i in range(dim):
            row = []
            for j in range(dim):
                acc: dict[int, int] = {}
                for k in range(dim):
                    left = a[i][k]
                    if not left:
                        continue
                    right = b[k][j]
                    if not right:
                        continue
                    if len(left) == 1 and 1 in left.values():
                        _add_shifted(acc, right, next(iter(left)), n)
                        continue
                    for e, c in left.items():
                        for e2, c2 in right.items():
                            k2 = (e + e2) % n
                            v = acc.get(k2, 0) + c * c2
                            if v:
                                acc[k2] = v
                            else:
                                acc.pop(k2, None)
                row.append(canonical_exponent_dict(n, acc))
            out.append(row)
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

    def transpose(self) -> "WeilMatrix":
        dim = self.dim
        out = [[dict(self._raw[j][i]) for j in range(dim)] for i in range(dim)]
        return WeilMatrix(self.df, out, self._s_power, self.dual)

    def conjugate_transpose(self) -> "WeilMatrix":
        return self.conjugate().transpose()

    def is_identity(self) -> bool:
        return self == identity_matrix(self.df)

    def is_unitary(self) -> bool:
        return (self @ self.conjugate_transpose()).is_identity()

    def __eq__(self, other):
        if not isinstance(other, WeilMatrix):
            return NotImplemented
        if self.df != other.df:
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

    def apply(self, vec: list[CyclotomicNumber]) -> list[CyclotomicNumber]:
        """Matrix-vector product over exact cyclotomic numbers."""
        ent = self.entries()
        out = []
        for i in range(self.dim):
            acc = CyclotomicNumber.zero(self.order)
            for j in range(self.dim):
                acc = acc + ent[i][j] * vec[j]
            out.append(acc)
        return out

    def embed(self, precision: int = 53) -> list[list[complex]]:
        return [[x.embed(precision) for x in row] for row in self.entries()]

    def embed_mpc(self, precision: int = 53):
        return [[x.embed_mpc(precision) for x in row] for row in self.entries()]

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


def _identity_raw(dim: int) -> list[list[dict]]:
    return [[{0: 1} if i == j else {} for j in range(dim)] for i in range(dim)]


def identity_matrix(df: DiscriminantForm) -> WeilMatrix:
    return WeilMatrix(df, _identity_raw(df.size), 0)


def rho_T(df: DiscriminantForm) -> WeilMatrix:
    """Diagonal generator: rho(T) e_gamma = e(Q(gamma)) e_gamma."""
    n = df.field_order
    v = n // (4 * df.m)
    dim = df.size
    raw = [
        [{(g * g * v) % n: 1} if g == h else {} for h in range(dim)]
        for g in range(dim)
    ]
    return WeilMatrix(df, raw, 0)


def rho_S(df: DiscriminantForm) -> WeilMatrix:
    """rho(S) e_gamma = (e(-sigma/8)/sqrt(2m)) sum_delta e(-(gamma,delta)) e_delta."""
    n = df.field_order
    u = n // (2 * df.m)
    dim = df.size
    raw = [[{(-d * g * u) % n: 1} for g in range(dim)] for d in range(dim)]
    return WeilMatrix(df, raw, 1)


def rho_Z(df: DiscriminantForm) -> WeilMatrix:
    """The center generator: rho(Z) e_gamma = e(-sigma/4) e_{-gamma}."""
    return WeilMatrix(df, *_left_Z(df, _identity_raw(df.size), 0, 1))


# -- word evaluation ----------------------------------------------------


def _left_T(df, raw, s_power, power: int):
    n = df.field_order
    v = n // (4 * df.m)
    new = []
    for g, row in enumerate(raw):
        shift = (power * g * g * v) % n
        new.append([_shift(d, shift, n) for d in row])
    return new, s_power


def _left_S(df, raw, s_power, inverse: bool = False):
    n = df.field_order
    u = n // (2 * df.m)
    dim = df.size
    extra = (df.signature_delta * (n // 4)) % n if inverse else 0
    sign = 1 if inverse else -1
    new = []
    for delta in range(dim):
        row: list[dict] = [dict() for _ in raw[0]]
        for gamma in range(dim):
            src = raw[gamma]
            shift = (sign * delta * gamma * u + extra) % n
            for beta in range(len(src)):
                if src[beta]:
                    _add_shifted(row[beta], src[beta], shift, n)
        new.append([canonical_exponent_dict(n, d) for d in row])
    return new, s_power + 1


def _left_Z(df, raw, s_power, power: int):
    """rho(Z)^power times raw: row delta becomes e(-sigma power/4) row (-1)^power delta."""
    if power % 4 == 0:
        return raw, s_power
    n = df.field_order
    shift = (-df.signature_delta * power * (n // 4)) % n
    sign = -1 if power % 2 else 1
    dim = len(raw)
    return [[_shift(d, shift, n) for d in raw[(sign * g) % dim]] for g in range(dim)], s_power


def _apply_word(df: DiscriminantForm, word: Word, raw=None):
    """Raw table of rho(word) times raw (default the identity; one column is a vector).

    Walks word.runs right to left: rho(Z)^z_power first as a signed
    permutation, then one diagonal product per T-run and |e| dense
    products per S-run (words from mp_decompose have only S^-1 runs).
    """
    if raw is None:
        raw = _identity_raw(df.size)
    raw, s_power = _left_Z(df, raw, 0, word.z_power)  # rightmost
    for gen, e in reversed(word.runs):
        if gen == "T":
            raw, s_power = _left_T(df, raw, s_power, e)
        else:
            for _ in range(abs(e)):
                raw, s_power = _left_S(df, raw, s_power, inverse=e < 0)
    return raw, s_power


def rho_eval(df: DiscriminantForm, g: MpElement, dual: bool = False) -> WeilMatrix:
    """rho_L(g) (or its dual) as an exact matrix, via mp_decompose(g)."""
    word = mp_decompose(g)
    raw, s_power = _apply_word(df, word)
    out = WeilMatrix(df, raw, s_power)
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
    # rho(word) applied to the all-ones vector, a one-column raw table
    ones = [[{0: 1}] for _ in range(df.size)]
    raw, s_power = _apply_word(df, mp_decompose(conj), ones)
    eps_inv = (
        CyclotomicNumber.one() if d % 4 == 1 else root_of_unity(3, 4)
    )  # eps_d^-1, with eps_d = sqrt((-1/d))
    lam = eps_inv * kronecker(c, d)
    pref = _prefactor_power(df.m, df.signature_delta, s_power)
    holds = all(
        CyclotomicNumber.from_exponent_dict(df.field_order, row[0]) * pref == lam
        for row in raw
    )
    return lam, holds
