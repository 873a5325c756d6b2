"""The exact bridge between scalar plus-space and vector-valued expansions.

A scalar expansion supported on the square classes mod 4m splits into one
component per residue gamma mod 2m, and the components recombine by
rescaling the variable; both directions are exact on stored coefficients.
The machinery that certifies the splitting also lives here: the character
matrices A, C, R and B = CA over the cyclotomic field, the exact rank of
B, the Gauss-sum closed form for AR, and the numeric slash-operator
consistency check that ties the matrices back to actual evaluations.
Every entry of A and C is a 4m-th root of unity and R is rho(S) from
weilrep, so B and AR are WeilMatrix products of integer exponent tables
(each entry is reduced into the power basis once), and AR is compared with
its closed form by WeilMatrix equality, which aligns R's prefactor.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from numbers import Rational
from typing import TYPE_CHECKING, NamedTuple

from .arith import euler_phi, integer_matrix_rank, inverse_mod, is_prime, kronecker
from .discform import DiscriminantForm, square_classes
from .expansions import (
    HarmonicExpansion,
    SCheckReport,
    VectorForm,
    default_precision,
    eval_point,
    plus_space_check,
)

if TYPE_CHECKING:
    from .cyclo import CyclotomicNumber

__all__ = [
    "ProofMatrices",
    "RankLemmaReport",
    "split_to_vector",
    "combine_to_scalar",
    "build_proof_matrices",
    "rank_lemma_check",
    "b_entry_bruteforce",
    "gauss_sum_identity_check",
    "f_j_consistency_check",
    "coprime_residues",
]


def coprime_residues(n: int) -> tuple[int, ...]:
    """The units j in [1, n] with gcd(j, n) = 1, in increasing order."""
    return tuple(j for j in range(1, n + 1) if gcd(j, n) == 1)


# -- the scalar/vector maps ---------------------------------------------


def _scale(value, s: int):
    if s == 1:
        return value
    if isinstance(value, Rational):
        return Fraction(value) / s
    return value / s


def split_to_vector(f: HarmonicExpansion, m: int, k: int, *,
                    allow_composite: bool = False) -> VectorForm:
    """Distribute a plus-space scalar expansion over the 2m components.

    A stored coefficient at n lands on every component gamma with
    (-1)^k n = gamma^2 mod 4m, at index n/4m, divided by 2 unless gamma
    is its own negative.  k even produces a form of plain type, k odd a
    dual-type one.  The index hypothesis (m = 1 or prime) is enforced
    unless `allow_composite` is set; the reverse map is exact for any m,
    but this direction halves coefficients whenever a square class has
    more than one self-paired root.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError("index m must be a positive integer")
    if f.weight_num != 2 * k + 1:
        raise ValueError(
            f"weight mismatch: expansion has weight {f.weight_num}/2, expected {2 * k + 1}/2"
        )
    if not (allow_composite or m == 1 or is_prime(m)):
        raise ValueError("m must be 1 or prime (pass allow_composite=True to override)")
    if not plus_space_check(f, m, k):
        raise ValueError("expansion is not supported on the plus-space square classes")
    df = DiscriminantForm(m)
    n4 = 4 * m
    dim = 2 * m
    sign = -1 if k % 2 else 1
    by_residue: dict[int, list[int]] = {}
    for g in range(dim):
        by_residue.setdefault(sign * g * g % n4, []).append(g)
    cps: dict[int, dict] = {g: {} for g in range(dim)}
    cms: dict[int, dict] = {g: {} for g in range(dim)}
    for n, v in f.c_plus.items():
        for g in by_residue[n % n4]:
            cps[g][Fraction(n, n4)] = _scale(v, df.s_factor(g))
    for n, v in f.c_minus.items():
        for g in by_residue[n % n4]:
            cms[g][Fraction(n, n4)] = _scale(v, df.s_factor(g))
    lo, hi = f.window
    window = (Fraction(lo) / n4, Fraction(hi) / n4)
    comps = {
        g: HarmonicExpansion(f.weight_num, cps[g], cms[g], window=window)
        for g in range(dim)
    }
    return VectorForm(df, f.weight_num, comps, dual=bool(k % 2))


def combine_to_scalar(F: VectorForm, k: int | None = None) -> HarmonicExpansion:
    """Rescale the variable by 4m in every component and add them up.

    The component coefficient at index n lands at scalar index 4mn, which
    the support congruence makes an integer; the incomplete-Gamma argument
    4 pi |n| y rescales along and needs no bookkeeping.  The result is
    checked to land in the plus space, which also pins the representation
    type to the weight parity.
    """
    if k is not None and F.k != k:
        raise ValueError(f"weight mismatch: form has k = {F.k}, expected {k}")
    k = F.k
    if F.dual != bool(k % 2):
        raise ValueError(
            "representation type disagrees with the weight parity "
            "(k even pairs with the plain type, k odd with the dual)"
        )
    if not F.support_congruence_ok():
        raise ValueError("component support violates the congruence invariant")
    m = F.df.m
    n4 = 4 * m
    c_plus: dict[int, object] = {}
    c_minus: dict[int, object] = {}
    los, his = [], []
    for g in range(F.df.size):
        comp = F.components[g]
        los.append(Fraction(comp.window[0]))
        his.append(Fraction(comp.window[1]))
        for n, v in comp.c_plus.items():
            idx = int(n4 * Fraction(n))
            c_plus[idx] = c_plus.get(idx, 0) + v
        for n, v in comp.c_minus.items():
            idx = int(n4 * Fraction(n))
            c_minus[idx] = c_minus.get(idx, 0) + v
    window = (n4 * max(los), n4 * min(his))
    result = HarmonicExpansion(F.weight_num, c_plus, c_minus, window=window)
    if not plus_space_check(result, m, k):
        raise ValueError("combined expansion falls outside the plus space")
    return result


# -- proof matrices ------------------------------------------------------


class ProofMatrices(NamedTuple):
    """The character matrices certifying the S-transformation of split forms.

    Rows of A and columns of C are indexed by the units j mod 4m in
    increasing order; A is phi(4m) x 2m, C is 2m x phi(4m), R is the
    2m x 2m matrix of the S-action, and B = C A exactly.
    """

    m: int
    j_list: tuple[int, ...]
    A: tuple[tuple[CyclotomicNumber, ...], ...]
    C: tuple[tuple[CyclotomicNumber, ...], ...]
    R: tuple[tuple[CyclotomicNumber, ...], ...]
    B: tuple[tuple[CyclotomicNumber, ...], ...]


def _character_tables(m: int):
    """The units j mod 4m and the exponent tables mod 4m of A and C."""
    if not isinstance(m, int) or m < 1:
        raise ValueError("index m must be a positive integer")
    n4 = 4 * m
    js = coprime_residues(n4)
    a = [[j * g * g % n4 for g in range(2 * m)] for j in js]
    c = [[-j * b * b % n4 for j in js] for b in range(2 * m)]
    return js, a, c


def _as_weil(df: DiscriminantForm, table) -> WeilMatrix:
    """A table of exponents mod 4m as a WeilMatrix over Q(zeta_N), N = df.field_order."""
    from .weilrep import WeilMatrix

    v = df.field_order // (4 * df.m)
    return WeilMatrix(df, [[{e * v: 1} for e in row] for row in table], 0)


def build_proof_matrices(m: int) -> ProofMatrices:
    """Exact A, C, R = rho(S) and B = CA for index m."""
    from .cyclo import CyclotomicNumber, root_of_unity
    from .weilrep import rho_S

    n4 = 4 * m
    js, xa, xc = _character_tables(m)
    df = DiscriminantForm(m)
    a = tuple(tuple(root_of_unity(e, n4) for e in row) for row in xa)
    c = tuple(tuple(root_of_unity(e, n4) for e in row) for row in xc)
    r = tuple(tuple(row) for row in rho_S(df).entries())
    b = []
    for row in (_as_weil(df, xc) @ _as_weil(df, xa))._raw:
        if any(d.keys() - {0} for d in row):
            raise ArithmeticError("B entry failed to reduce to an integer")
        b.append(tuple(CyclotomicNumber.from_rational(d.get(0, 0)) for d in row))
    return ProofMatrices(m, js, a, c, r, tuple(b))


def b_entry_bruteforce(m: int, beta: int, gamma: int) -> int:
    """The entry sum_j e(j (gamma^2 - beta^2) / 4m) over units j mod 4m.

    Always a rational integer (it is a Ramanujan sum in gamma^2 - beta^2).
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError("index m must be a positive integer")
    from .cyclo import CyclotomicNumber

    n4 = 4 * m
    diff = (gamma * gamma - beta * beta) % n4
    counts: dict[int, int] = {}
    for j in coprime_residues(n4):
        e = j * diff % n4
        counts[e] = counts.get(e, 0) + 1
    val = CyclotomicNumber.from_exponent_dict(n4, counts).as_rational()
    if val.denominator != 1:
        raise ArithmeticError("character sum failed to reduce to an integer")
    return int(val)


class RankLemmaReport(NamedTuple):
    """Exact rank data for B = CA, with the predicted-entry discrepancies.

    The first two fields keep the (rank, independence) access pattern for
    the predicted rank 2 phi(m) and the leading 2 phi(m) columns.
    `table_discrepancies` lists (beta, gamma, computed, predicted) for
    every entry where B differs from the piecewise prediction
    2 phi(m) / -2 / 0, which happens exactly on the beta = -gamma cells
    off the diagonal.  Because B depends on gamma only through gamma^2,
    its columns repeat as col_gamma = col_{-gamma}, so the rank can never
    exceed m + 1; `distinct_columns_independent` records whether the
    m + 1 structurally distinct columns (gamma = 0..m) are independent,
    which is the injectivity on symmetric vectors the downstream argument
    actually consumes.
    """

    rank: int
    first_columns_independent: bool
    expected_rank: int
    rank_matches: bool
    table_discrepancies: tuple[tuple[int, int, int, int], ...]
    distinct_columns_independent: bool


def rank_lemma_check(m: int) -> RankLemmaReport:
    """Exact rank of B = CA against the predicted 2 phi(m).

    B is integer-valued, so the rank is computed by fraction-free
    elimination over the integers; the independence flags cover the
    leading 2 phi(m) columns and the m + 1 distinct ones.
    """
    mats = build_proof_matrices(m)
    dim = 2 * m
    b_int = [[int(x.as_rational()) for x in row] for row in mats.B]
    expected = 2 * euler_phi(m)
    rank = integer_matrix_rank([row[:] for row in b_int])
    leading = integer_matrix_rank([row[:expected] for row in b_int])
    distinct = integer_matrix_rank([row[: m + 1] for row in b_int])
    discrepancies = []
    for beta in range(dim):
        for gamma in range(dim):
            if beta == gamma:
                predicted = 2 * euler_phi(m)
            elif (beta - gamma) % 2 == 0:
                predicted = -2
            else:
                predicted = 0
            if b_int[beta][gamma] != predicted:
                discrepancies.append((beta, gamma, b_int[beta][gamma], predicted))
    return RankLemmaReport(
        rank=rank,
        first_columns_independent=(leading == expected),
        expected_rank=expected,
        rank_matches=(rank == expected),
        table_discrepancies=tuple(discrepancies),
        distinct_columns_independent=(distinct == m + 1),
    )


def _epsilon_inverse(j: int) -> CyclotomicNumber:
    """1/eps_j for odd j: 1 when j = 1 mod 4, -i when j = 3 mod 4."""
    if j % 2 == 0:
        raise ValueError("epsilon factor needs odd j")
    from .cyclo import CyclotomicNumber, root_of_unity

    return CyclotomicNumber.one() if j % 4 == 1 else root_of_unity(3, 4)


def gauss_sum_identity_check(m: int) -> bool:
    """Exact check of the closed form for the product AR.

    The row for the unit j must equal (4m/j) eps_j^-1 e(-j^-1 gamma^2/4m)
    with j^-1 the inverse mod 4m and (4m/j) the Kronecker symbol.  AR is a
    WeilMatrix product with R = rho(S), and the closed form is compared
    with it at s_power 0, so the comparison aligns R's prefactor.
    """
    from .weilrep import WeilMatrix, rho_S

    n4 = 4 * m
    js, xa, _ = _character_tables(m)
    df = DiscriminantForm(m)
    n = df.field_order
    v = n // n4
    closed = []
    for j in js:
        jinv = inverse_mod(j, n4)
        eps_inv = 0 if j % 4 == 1 else 3 * n // 4  # eps_j^-1 = -i = e(3/4)
        sign = kronecker(n4, j)
        closed.append([{(eps_inv - jinv * g * g * v) % n: sign} for g in range(2 * m)])
    return _as_weil(df, xa) @ rho_S(df) == WeilMatrix(df, closed, 0)


def f_j_consistency_check(f: HarmonicExpansion, m: int, k: int, j: int,
                          points, tolerance: float = 1e-8, *,
                          growth_exponent=None,
                          precision: int | None = None) -> SCheckReport:
    """Numeric check of the twisted S-identity behind the splitting map.

    For k even and F = split_to_vector(f), compares

        sum_g e(j g^2/4m) F_g(-1/tau)
            against (4m/j) eps_j^-1 tau^(k+1/2) sum_g e(-j^-1 g^2/4m) F_g(tau)

    at each sample point.  The k odd branch carries the conjugated
    coefficients and eps_j in place of its inverse, as forced by
    conjugating the S-matrix identity.  The identity holds only for
    expansions of actual modular forms, so corrupted input shows up as a
    deviation above tolerance rather than an error.
    """
    from mpmath import mp, mpc, sqrt

    from .cyclo import root_of_unity

    n4 = 4 * m
    if gcd(j, n4) != 1:
        raise ValueError("j must be coprime to 4m")
    F = split_to_vector(f, m, k)
    prec = precision or default_precision()
    dim = 2 * m
    jinv = inverse_mod(j, n4)
    if k % 2 == 0:
        left = [root_of_unity(j * g * g, n4) for g in range(dim)]
        right = [root_of_unity(-jinv * g * g, n4) for g in range(dim)]
        eps = _epsilon_inverse(j)
    else:
        left = [root_of_unity(-j * g * g, n4) for g in range(dim)]
        right = [root_of_unity(jinv * g * g, n4) for g in range(dim)]
        eps = _epsilon_inverse(j).conj()
    with mp.workprec(prec):
        lc = [x.embed_mpc(prec) for x in left]
        rc = [x.embed_mpc(prec) for x in right]
        front = kronecker(n4, j) * eps.embed_mpc(prec)
        budget = tolerance / (4 * (1 + dim))
        deviations = []
        for p in points:
            t = mpc(p)
            lvals, _ = eval_point(F, -1 / t, accuracy=budget,
                                  growth_exponent=growth_exponent, precision=prec)
            rvals, _ = eval_point(F, t, accuracy=budget,
                                  growth_exponent=growth_exponent, precision=prec)
            lhs = sum(lc[g] * lvals[g] for g in range(dim))
            rhs = front * t**k * sqrt(t) * sum(rc[g] * rvals[g] for g in range(dim))
            deviations.append(abs(lhs - rhs))
        return SCheckReport(points, deviations, tolerance)
