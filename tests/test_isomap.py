"""Splitting maps, proof matrices, rank and character-sum identities."""

import random
from fractions import Fraction

import pytest
from mpmath import mp

from weilforms.arith import euler_phi, inverse_mod, kronecker
from weilforms.cyclo import root_of_unity, sqrt_nat
from weilforms.discform import DiscriminantForm
from weilforms.expansions import (
    HarmonicExpansion,
    random_plus_expansion,
    theta_expansion,
)
from weilforms.isomap import (
    _as_weil,
    _character_tables,
    b_entry_bruteforce,
    b_rows,
    build_proof_matrices,
    combine_to_scalar,
    coprime_residues,
    f_j_consistency_check,
    gauss_sum_identity_check,
    rank_lemma_check,
    split_to_vector,
)
from weilforms.weilrep import WeilMatrix, rho_S


def test_coprime_residues():
    assert coprime_residues(12) == (1, 5, 7, 11)
    assert coprime_residues(1) == (1,)
    assert len(coprime_residues(40)) == euler_phi(40)


def test_split_self_paired_component_is_undivided():
    f = HarmonicExpansion(1, {5: 1}, window=(-8, 8))
    F = split_to_vector(f, 1, 0)
    # gamma = 1 is its own negative mod 2, so no halving
    assert F.components[1].c_plus == {Fraction(5, 4): 1}
    assert F.components[0].is_zero()
    assert F.components[1].window == (-2, 2)


def test_split_halves_across_paired_roots():
    f = HarmonicExpansion(1, {1: 1}, window=(-12, 12))
    F = split_to_vector(f, 3, 0)
    assert F.components[1].c_plus == {Fraction(1, 12): Fraction(1, 2)}
    assert F.components[5].c_plus == {Fraction(1, 12): Fraction(1, 2)}
    for g in (0, 2, 3, 4):
        assert F.components[g].is_zero()


def test_split_gates():
    f = HarmonicExpansion(1, {0: 1}, window=(-4, 4))
    with pytest.raises(ValueError):
        split_to_vector(f, 4, 0)
    split_to_vector(f, 4, 0, allow_composite=True)
    with pytest.raises(ValueError):
        split_to_vector(f, 2, 1)      # weight says k = 0
    bad = HarmonicExpansion(1, {2: 1}, window=(-4, 4))
    with pytest.raises(ValueError):
        split_to_vector(bad, 1, 0)    # off the square classes


def test_combine_gates():
    F = split_to_vector(theta_expansion(8), 1, 0)
    with pytest.raises(ValueError):
        combine_to_scalar(F, k=1)
    flipped = type(F)(F.df, F.weight_num, dict(F.components), dual=True)
    with pytest.raises(ValueError):
        combine_to_scalar(flipped)


def test_roundtrip_corpus():
    rng = random.Random(977)
    for m in (1, 2, 3, 5):
        for k in (0, 1):
            for _ in range(12):
                f = random_plus_expansion(m, k, rng)
                F = split_to_vector(f, m, k)
                assert F.dual == bool(k % 2)
                assert F.support_congruence_ok()
                assert combine_to_scalar(F, k) == f


def test_composite_roundtrip_doubles_on_doubly_self_paired_class():
    # m = 4 is why the prime gate exists: gamma = 0 and gamma = 4 are both
    # self-paired with 0^2 = 4^2 = 0 mod 16, so a coefficient at n = 16
    # lands whole on both components and comes back doubled.
    f = HarmonicExpansion(1, {16: 1}, window=(-16, 16))
    F = split_to_vector(f, 4, 0, allow_composite=True)
    assert F.components[0].c_plus == {1: 1}
    assert F.components[4].c_plus == {1: 1}
    assert combine_to_scalar(F).c_plus == {16: 2}
    # off that class the composite roundtrip is still exact
    g = HarmonicExpansion(1, {1: 1, 4: 1}, window=(-16, 16))
    assert combine_to_scalar(split_to_vector(g, 4, 0, allow_composite=True)) == g


def test_split_image_satisfies_T():
    F = split_to_vector(theta_expansion(40), 1, 0)
    assert F.support_congruence_ok()


def _reference_R(m):
    """The S-action built from roots of unity, independently of weilrep:
    e(-1/8) sqrt(2m)/2m e(-2 l gamma/4m) in row l, column gamma."""
    pref = root_of_unity(-1, 8) * sqrt_nat(2 * m) / (2 * m)
    return tuple(
        tuple(pref * root_of_unity(-2 * l * g, 4 * m) for g in range(2 * m))
        for l in range(2 * m)
    )


def test_R_matches_weil_S_action():
    for m in (1, 2, 3, 5):
        assert build_proof_matrices(m).R == _reference_R(m), m


def _matmul(x, y):
    """The generic product over CyclotomicNumber entries (reference)."""
    inner = len(y)
    cols = len(y[0])
    out = []
    for row in x:
        acc_row = []
        for c in range(cols):
            acc = row[0] * y[0][c]
            for t in range(1, inner):
                acc = acc + row[t] * y[t][c]
            acc_row.append(acc)
        out.append(tuple(acc_row))
    return tuple(out)


def _entries(mat):
    return tuple(tuple(row) for row in mat.entries())


def test_exponent_count_products_match_generic_matmul():
    for m in range(1, 6):
        df = DiscriminantForm(m)
        mats = build_proof_matrices(m)
        js, xa, xc = _character_tables(m)
        assert js == mats.j_list
        a_w, c_w = _as_weil(df, xa), _as_weil(df, xc)
        assert _entries(a_w) == mats.A and _entries(c_w) == mats.C
        ca = _matmul(mats.C, mats.A)
        assert _entries(c_w @ a_w) == ca == mats.B, m
        assert _entries(a_w @ rho_S(df)) == _matmul(mats.A, _reference_R(m)), m


def _closed_AR(m, sign=1, eps=True):
    """sign (4m/j) eps_j^-1 e(-j^-1 gamma^2/4m) at s_power 0, or without eps_j^-1."""
    df = DiscriminantForm(m)
    n, n4 = df.field_order, 4 * m
    rows = []
    for j in coprime_residues(n4):
        f = 3 * n // 4 if eps and j % 4 == 3 else 0
        c = sign * kronecker(n4, j)
        rows.append([{(f - inverse_mod(j, n4) * g * g * n // n4) % n: c}
                     for g in range(2 * m)])
    return WeilMatrix(df, rows, 0)


def test_gauss_sum_closed_form_detects_wrong_factors():
    for m in (1, 2, 3, 5, 7):
        df = DiscriminantForm(m)
        ar = _as_weil(df, _character_tables(m)[1]) @ rho_S(df)
        assert ar == _closed_AR(m), m
        assert ar != _closed_AR(m, sign=-1), m
        assert ar != _closed_AR(m, eps=False), m


def test_B_equals_bruteforce_character_sums():
    for m in (1, 2, 3, 4, 6, 10):
        mats = build_proof_matrices(m)
        for b in range(2 * m):
            for g in range(2 * m):
                assert mats.B[b][g].as_rational() == b_entry_bruteforce(m, b, g)
        # b_rows multiplies only the rows it is asked for, beta taken mod 2m
        betas = [2 * m - 1, 0, -1, 2 * m]
        assert b_rows(m, betas) == [[int(x.as_rational()) for x in mats.B[b % (2 * m)]]
                                    for b in betas]


def test_rank_lemma_small_indices_match_prediction():
    for m in (1, 2, 3):
        rep = rank_lemma_check(m)
        assert rep.expected_rank == 2 * euler_phi(m)
        assert rep.rank == rep.expected_rank
        assert rep.rank_matches
        assert rep.first_columns_independent


def test_rank_lemma_prime_rank_is_m_plus_one():
    for m in (3, 5, 7, 11, 13):
        rep = rank_lemma_check(m)
        assert rep.rank == m + 1, m
        assert rep.rank_matches == (m + 1 == 2 * euler_phi(m)), m
        assert rep.distinct_columns_independent, m


def test_rank_lemma_m2_distinct_columns_degenerate():
    rep = rank_lemma_check(2)
    assert not rep.distinct_columns_independent
    assert rank_lemma_check(1).distinct_columns_independent


def test_rank_lemma_discrepancies_sit_on_negation_cells():
    # for odd prime m the predicted table fails exactly at beta = -gamma
    # off the diagonal, where the character sum evaluates to phi(4m)
    for m in (3, 5, 7):
        rep = rank_lemma_check(m)
        dim = 2 * m
        want = {
            ((-g) % dim, g, euler_phi(4 * m), -2)
            for g in range(dim)
            if (2 * g) % dim != 0
        }
        assert set(rep.table_discrepancies) == want, m
    assert rank_lemma_check(1).table_discrepancies == ()


def test_rank_lemma_discrepancies_m2():
    # at m = 2 even the diagonal prediction 2 phi(2) = 2 misses phi(8) = 4,
    # and the even-difference cells split into +-phi(8) instead of -2
    want = {
        (0, 0, 4, 2), (1, 1, 4, 2), (2, 2, 4, 2), (3, 3, 4, 2),
        (0, 2, -4, -2), (2, 0, -4, -2),
        (1, 3, 4, -2), (3, 1, 4, -2),
    }
    assert set(rank_lemma_check(2).table_discrepancies) == want


def test_gauss_sum_identity():
    for m in (1, 2, 3, 4, 5, 6, 7):
        assert gauss_sum_identity_check(m), m


def test_proof_entry_points_reject_bad_index():
    for m in (0, -3, 2.0):
        for call in (build_proof_matrices, gauss_sum_identity_check,
                     lambda m: b_entry_bruteforce(m, 1, 0)):
            with pytest.raises(ValueError, match="index m must be a positive integer"):
                call(m)


def test_f_j_on_theta():
    mp.prec = 160
    th = theta_expansion(400)
    for j in (1, 3):
        rep = f_j_consistency_check(th, 1, 0, j, [1j], 1e-8)
        assert rep.passed, j
        assert rep.max_deviation < 1e-20


def test_f_j_detects_corruption():
    mp.prec = 160
    th = theta_expansion(400)
    broken = dict(th.c_plus)
    broken[4] = broken[4] + Fraction(1, 31)
    bad = HarmonicExpansion(1, broken, window=th.window)
    rep = f_j_consistency_check(bad, 1, 0, 3, [1j], 1e-8)
    assert not rep.passed


def test_f_j_rejects_common_factor():
    with pytest.raises(ValueError):
        f_j_consistency_check(theta_expansion(8), 1, 0, 2, [1j])
