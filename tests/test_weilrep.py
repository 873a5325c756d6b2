"""Exact Weil representation matrices: generators, relations, closed forms."""

import random
import time
from fractions import Fraction

import pytest

from weilforms.arith import inverse_mod, kronecker
from weilforms.cyclo import CyclotomicNumber, canonical_exponent_dict, root_of_unity, sqrt_nat
from weilforms.discform import DiscriminantForm
from weilforms.metaplectic import MP_S, MP_T, MP_Z, mp_mul, mp_pow, mp_tilde, parse_word
from weilforms.weilrep import (
    WeilMatrix,
    borcherds_eigencheck,
    identity_matrix,
    rho_S,
    rho_T,
    rho_Z,
    rho_eval,
    shintani_unipotent,
)


def test_rho_T_entries():
    df = DiscriminantForm(3)
    T = rho_T(df)
    for g in range(6):
        q = df.q_value(g)
        assert T.entry(g, g) == root_of_unity(q.numerator, q.denominator)
    assert T.entry(0, 1) == 0


def test_rho_S_entries_closed_form():
    for m in (1, 2, 3):
        df = DiscriminantForm(m)
        S = rho_S(df)
        pref = root_of_unity(-1, 8) / 1 * (sqrt_nat(2 * m) / (2 * m))
        for b in range(2 * m):
            for g in range(2 * m):
                blf = df.bilinear(b, g)
                expect = pref * root_of_unity(-blf.numerator, blf.denominator)
                assert S.entry(b, g) == expect, (m, b, g)


def test_generators_unitary():
    for m in (1, 2, 5):
        df = DiscriminantForm(m)
        assert rho_T(df).is_unitary()
        assert rho_S(df).is_unitary()


def test_S_fourth_power_is_minus_identity():
    # the true finite-order structure: rho(S)^2 = rho(Z), rho(Z)^2 = -1
    for m in (1, 2, 3, 4):
        df = DiscriminantForm(m)
        S = rho_S(df)
        S4 = (S @ S) @ (S @ S)
        minus = identity_matrix(df)
        assert all(
            S4.entry(i, j) == (-1 if i == j else 0)
            for i in range(df.size) for j in range(df.size)
        ), m
        assert (S4 @ S4).is_identity()
        assert rho_Z(df) == S @ S


def test_braid_relation():
    for m in (1, 2, 3, 4):
        df = DiscriminantForm(m)
        S, T = rho_S(df), rho_T(df)
        st = S @ T
        assert st @ (st @ st) == S @ S, m


def test_dual_is_entrywise_conjugate():
    df = DiscriminantForm(3)
    g = mp_mul(mp_mul(MP_S, MP_T), mp_pow(MP_T, 2))
    mat = rho_eval(df, g)
    dual = rho_eval(df, g, dual=True)
    for i in range(df.size):
        for j in range(df.size):
            assert dual.entry(i, j) == mat.entry(i, j).conj()


def test_rho_eval_is_homomorphism_random():
    rng = random.Random(31)
    df = DiscriminantForm(2)
    gens = [MP_S, MP_T, MP_S.inv(), MP_T.inv()]
    for _ in range(10):
        g = mp_tilde((1, 0, 0, 1))
        h = mp_tilde((1, 0, 0, 1))
        for _ in range(rng.randrange(1, 7)):
            g = mp_mul(g, rng.choice(gens))
        for _ in range(rng.randrange(1, 7)):
            h = mp_mul(h, rng.choice(gens))
        assert rho_eval(df, mp_mul(g, h)) == rho_eval(df, g) @ rho_eval(df, h)


def test_rho_eval_300_digit_element_times_inverse():
    rng = random.Random(32)
    df = DiscriminantForm(2)
    g = mp_tilde((1, 0, 0, 1))
    while max(abs(x) for x in g.matrix) < 10**299:
        g = mp_mul(g, mp_mul(mp_tilde((1, rng.randrange(-60, 61), 0, 1)), MP_S))
    start = time.perf_counter()
    product = rho_eval(df, g) @ rho_eval(df, g.inv())
    assert time.perf_counter() - start < 1.0
    assert product.is_identity()


def test_rho_eval_word_vs_generators():
    df = DiscriminantForm(1)
    w = parse_word("S T T S'")
    assert rho_eval(df, w.to_element()) == (
        rho_S(df) @ rho_T(df) @ rho_T(df)
        @ (rho_S(df) @ rho_S(df) @ rho_S(df) @ rho_S(df) @ rho_S(df)
           @ rho_S(df) @ rho_S(df))
    )


def test_shintani_matches_rho_eval():
    for m in range(1, 7):
        df = DiscriminantForm(m)
        for n in range(-5, 6):
            g = mp_tilde((1, 0, n, 1))
            assert shintani_unipotent(df, n) == rho_eval(df, g), (m, n)


def test_shintani_all_ones_eigenvector():
    for m in (1, 2, 3, 5):
        df = DiscriminantForm(m)
        ones = WeilMatrix(df, [[{0: 1}] for _ in range(df.size)], 0)
        for n in (-3, 1, 4):
            assert shintani_unipotent(df, n) @ ones == ones, (m, n)


def _random_gamma0(m, rng, negative_a=False):
    """A determinant-one matrix (a b; c d) with 4m | c and d > 0."""
    n4 = 4 * m
    while True:
        c = n4 * rng.randrange(-4, 5)
        if c == 0:
            a = d = 1
            if negative_a:
                continue
            return (1, rng.randrange(-9, 10), 0, 1)
        a = rng.randrange(-15, 16)
        if a == 0 or abs(a) % 2 == 0 and c % 2 == 0:
            continue
        try:
            d = inverse_mod(a, abs(c))
        except ValueError:
            continue
        while d <= 0:
            d += abs(c)
        if negative_a and a >= 0:
            a = -a
            d = -d
            while d <= 0:
                d += abs(c)
            if (a * d - 1) % c:
                continue
        if (a * d - 1) % c:
            continue
        b = (a * d - 1) // c
        return (a, b, c, d)


def test_borcherds_eigen_identity_random():
    rng = random.Random(32)
    for m in (1, 2, 3):
        df = DiscriminantForm(m)
        seen_negative = 0
        for i in range(20):
            g = _random_gamma0(m, rng, negative_a=(i % 4 == 0))
            if g[0] < 0:
                seen_negative += 1
            eig, holds = borcherds_eigencheck(df, g)
            assert holds, (m, g)
            # the predicted eigenvalue is (c/d) eps_d^-1
            c, d = g[2], g[3]
            expect = kronecker(c, d) * (
                CyclotomicNumber.one(4) if d % 4 == 1 else root_of_unity(3, 4)
            )
            assert eig == expect, (m, g)
        assert seen_negative > 0


def test_borcherds_rejects_bad_input():
    df = DiscriminantForm(2)
    with pytest.raises(ValueError):
        borcherds_eigencheck(df, (1, 0, 1, 1))   # c not divisible by 8
    with pytest.raises(ValueError):
        borcherds_eigencheck(df, (1, 0, 8, 9))   # determinant != 1
    with pytest.raises(ValueError):
        borcherds_eigencheck(df, (-1, 0, 8, -1))  # d <= 0


def test_matrix_json_shape():
    df = DiscriminantForm(1)
    data = rho_S(df).to_json_dict()
    assert data["m"] == 1 and data["dual"] is False
    assert len(data["entries"]) == 2 and len(data["entries"][0]) == 2
    assert data["signature"] == [2, 1]


def test_mixed_index_product_rejected():
    with pytest.raises(ValueError):
        rho_S(DiscriminantForm(1)) @ rho_S(DiscriminantForm(2))


# -- equality on raw tables against an entries-based oracle --------------


def _same_entries(a, b):
    """Entrywise equality of the materialized matrices (the oracle)."""
    return all(
        a.entry(i, j) == b.entry(i, j)
        for i in range(a.dim) for j in range(a.dim)
    )


def _rescaled(mat, extra, sign=1):
    """sign * mat rewritten with s_power raised by `extra`.

    The raw table is multiplied by P^-extra = e(sigma extra/8) sqrt(2m)^extra,
    P = e(-sigma/8)/sqrt(2m), which keeps it an integer exponent table.
    """
    df, n = mat.df, mat.order
    factor = root_of_unity(df.signature_delta * extra, 8) * sqrt_nat(2 * df.m) ** extra
    raw = []
    for row in mat._raw:
        out = []
        for d in row:
            x = (CyclotomicNumber.from_exponent_dict(n, d) * factor * sign).lift(n)
            assert all(c.denominator == 1 for c in x.coefficients)
            out.append({j: int(c) for j, c in enumerate(x.coefficients) if c})
        raw.append(out)
    return WeilMatrix(df, raw, mat._s_power + extra, mat.dual)


def _forms():
    for m in range(1, 7):
        yield DiscriminantForm(m)
    yield DiscriminantForm(3, (3, 0))  # sigma = 3 exercises the phase shift


def test_eq_matches_entries_oracle_across_s_powers():
    g = mp_mul(mp_mul(MP_S, MP_T), mp_pow(MP_T, 3))
    for df in _forms():
        for dual in (False, True):
            base = rho_eval(df, g, dual=dual)
            other = rho_eval(df, mp_mul(g, MP_T), dual=dual)
            for d in range(4):
                for sign, mates in ((1, True), (-1, False)):
                    lifted = _rescaled(base, d, sign)
                    assert lifted._s_power - base._s_power == d
                    for x, y in ((base, lifted), (lifted, base)):
                        assert _same_entries(x, y) is mates, (df.m, dual, d, sign)
                        assert (x == y) is mates, (df.m, dual, d, sign)
                    # a different element at the same alignment stays unequal
                    assert not _same_entries(lifted, other)
                    assert lifted != other, (df.m, dual, d)


def test_is_identity_matches_entries_oracle():
    for df in _forms():
        ident = identity_matrix(df)
        S = rho_S(df)
        s4 = (S @ S) @ (S @ S)
        for dual in (False, True):
            for d in range(4):
                lifted = _rescaled(ident.conjugate() if dual else ident, d)
                assert _same_entries(lifted, ident) and lifted.is_identity(), (df.m, d)
                minus = _rescaled(ident, d, -1)
                assert not _same_entries(minus, ident) and not minus.is_identity()
        # rho(S)^4 = e(-sigma/2) I is the identity only when sigma is even
        assert s4.is_identity() is _same_entries(s4, ident) is (df.signature_delta % 2 == 0)
        assert (s4 @ s4).is_identity() and _same_entries(s4 @ s4, ident)


def test_eq_separates_distinct_elements():
    gens = [MP_S, MP_T, MP_S.inv(), mp_pow(MP_T, 2)]
    for m in (1, 2, 3, 5, 6):
        df = DiscriminantForm(m)
        mats = [rho_eval(df, g) for g in gens]
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                assert (a == b) is (i == j) is _same_entries(a, b), (m, i, j)


def test_rho_Z_powers_are_signed_permutations():
    # rho(Z)^k = (rho(S)^2)^k, evaluated without any dense S-product
    for df in _forms():
        S = rho_S(df)
        s2 = S @ S
        power = identity_matrix(df)
        for k in range(4):
            z = rho_eval(df, mp_pow(MP_Z, k))
            assert z._s_power == 0
            assert _same_entries(z, power) and z == power, (df.m, k)
            for gen in (rho_Z(df, k), rho_Z(df, k - 4), rho_Z(df, k + 8)):
                assert gen._s_power == 0
                assert _same_entries(gen, power) and gen == power, (df.m, k)
            power = power @ s2
        assert rho_Z(df) == s2 and _same_entries(rho_Z(df), s2)
        assert rho_eval(df, MP_S)._s_power == 1


# -- generator powers and the product kernel ------------------------------


def test_rho_T_powers():
    for df in _forms():
        T = rho_T(df)
        power = identity_matrix(df)
        for e in range(6):
            assert rho_T(df, e) == power and _same_entries(rho_T(df, e), power), (df.m, e)
            if 1 <= e <= 3:
                inverse = power.conjugate_transpose()
                assert rho_T(df, -e) == inverse and _same_entries(rho_T(df, -e), inverse)
            power = power @ T
        assert rho_T(df, 4 * df.m).is_identity()
        assert _same_entries(rho_T(df, 4 * df.m), identity_matrix(df))


def test_rho_S_inverse():
    for df in _forms():
        S, S_inv = rho_S(df), rho_S(df, inverse=True)
        assert S_inv._s_power == 1
        assert (S_inv @ S).is_identity() and (S @ S_inv).is_identity(), df.m
        assert _same_entries(S_inv @ S, identity_matrix(df))
        assert S_inv == S.conjugate_transpose()
        assert _same_entries(S_inv, S.conjugate_transpose())


def _column(mat, j):
    return WeilMatrix(mat.df, [[row[j]] for row in mat._raw], mat._s_power, mat.dual)


def test_one_column_product_matches_entries_oracle():
    # the left operands reach every branch of the kernel: single-term rows
    # with coefficient 1 (T, Z) or 2m (S S), rows of coefficient-1 monomials
    # (S^-1) and rows of general entries (dense, and dense with its table
    # scaled by -2m e(sigma/4))
    g = mp_mul(mp_mul(MP_S, mp_pow(MP_T, 3)), MP_S.inv())
    for df in _forms():
        S, dense = rho_S(df), rho_eval(df, g)
        lefts = (rho_T(df, 3), rho_Z(df, 1), S @ S, rho_S(df, inverse=True), dense,
                 _rescaled(dense, 2, -1))
        ent = dense.entries()
        for left in lefts:
            square = left @ dense
            for j in range(df.size):
                col = left @ _column(dense, j)
                assert col._s_power == square._s_power
                assert col == _column(square, j), (df.m, j)
                for i in range(df.size):
                    want = sum(
                        (left.entry(i, k) * ent[k][j] for k in range(df.size)),
                        CyclotomicNumber.zero(df.field_order),
                    )
                    assert col.entries()[i][0] == want == square.entry(i, j), (df.m, i, j)


def test_shapes_must_match():
    df = DiscriminantForm(3)
    S, I = rho_S(df), identity_matrix(df)
    e_0 = _column(I, 0)
    assert (I.shape, e_0.shape) == ((6, 6), (6, 1))
    assert I != e_0 and e_0 != I
    assert S != _column(S, 0)
    assert S @ e_0 == _column(S, 0)
    with pytest.raises(ValueError, match="inner sizes"):
        e_0 @ S
    with pytest.raises(ValueError, match="inner sizes"):
        S @ WeilMatrix(df, [[{0: 1}]], 0)


# -- the product kernel against a plain dict convolution ------------------


def _convolve(left, right, n):
    """The product of two raw tables by the definition, reduced entrywise."""
    out = []
    for row in left:
        out_row = []
        for j in range(len(right[0])):
            acc = {}
            for k, d in enumerate(row):
                for e, c in d.items():
                    for e2, c2 in right[k][j].items():
                        acc[e + e2] = acc.get(e + e2, 0) + c * c2
            out_row.append(canonical_exponent_dict(n, acc))
        out.append(out_row)
    return out


def _random_table(rng, rows, cols, n, terms, lo=0, hi=1):
    """Entries of fewer than `terms` terms with exponents in [lo n, hi n) and
    coefficients +-1, small, or above 2^64.

    Every table the package builds keeps its exponents in [0, n); a left
    table may hold any exponents.
    """
    def coefficient():
        c = rng.choice((1, 1, rng.randrange(2, 9), rng.randrange(2**64, 2**70)))
        return c * rng.choice((1, -1))
    return [
        [{rng.randrange(lo * n, hi * n): coefficient() for _ in range(rng.randrange(terms))}
         for _ in range(cols)]
        for _ in range(rows)
    ]


def _assert_product(df, left, right):
    n = df.field_order
    got = WeilMatrix(df, left, 1) @ WeilMatrix(df, right, 2)
    assert got._s_power == 3
    assert [[canonical_exponent_dict(n, d) for d in row] for row in got._raw] == \
        _convolve(left, right, n)


def test_matmul_matches_dict_convolution():
    rng = random.Random(20100)
    for m in (1, 3, 5, 30):  # N = 8, 24, 40, 120
        df = DiscriminantForm(m)
        n = df.field_order
        square = min(2 * m, 10)
        for rows, inner, cols in ((square, square, square), (3, 5, 2), (4, 6, 1), (1, 1, 1)):
            # rows of monomials (some of one term) and rows of longer entries
            for terms in (2, 2, 6, 6):
                _assert_product(df, _random_table(rng, rows, inner, n, terms, -1, 2),
                                _random_table(rng, inner, cols, n, 6))


def test_matmul_coefficients_at_the_width_bound():
    # every output coefficient is at most max_i sum_k |L_ik|_1 * max |R_kj|_1
    # in absolute value; in the first row each one reaches it, with either
    # sign, in the lowest and the highest digit and where the exponent folds
    df = DiscriminantForm(5)
    n = df.field_order
    for a, c in ((3, 5), (2**64 + 1, 2**65 - 1), (-(2**70), 7)):
        for e in (0, 1, n - 1):
            left = [[{e: a, e + n: a}], [{e: a, n - 1: -a}]]
            right = [[{0: c}, {1: -c}, {(n - e) % n: c}]]
            _assert_product(df, left, right)
            top = WeilMatrix(df, left, 0) @ WeilMatrix(df, right, 0)
            assert max(abs(x) for d in top._raw[0] for x in d.values()) == 2 * abs(a * c)
