"""The discriminant form (Z/2mZ, x^2/4m): values, Milgram sums, square classes."""

from fractions import Fraction

import pytest

from weilforms.cyclo import root_of_unity, sqrt_nat
from weilforms.discform import DiscriminantForm, square_classes


def bilinear(df, gamma, delta):
    """(gamma, delta) = gamma*delta / 2m as a fraction in [0, 1)."""
    return Fraction(gamma * delta, 2 * df.m) % 1


def test_rejects_bad_index_and_signature():
    with pytest.raises(ValueError):
        DiscriminantForm(0)
    with pytest.raises(ValueError):
        DiscriminantForm(3, (-1, 2))


def test_basic_values_m3():
    df = DiscriminantForm(3)
    assert df.size == 6
    assert df.level == 12
    assert df.q_value(1) == Fraction(1, 12)
    assert df.q_value(5) == Fraction(1, 12)  # 25/12 reduced mod 1
    assert bilinear(df, 2, 3) == 0           # 6/6 = 1 = 0 mod 1
    assert bilinear(df, 1, 2) == Fraction(1, 3)


def test_q_value_is_even_quadratic():
    for m in (1, 2, 5, 6):
        df = DiscriminantForm(m)
        for g in range(2 * m):
            assert df.q_value(-g) == df.q_value(g)
            for d in range(2 * m):
                # polarization: Q(g + d) - Q(g) - Q(d) = (g, d) mod 1
                lhs = (df.q_value(g + d) - df.q_value(g) - df.q_value(d)) % 1
                assert lhs == bilinear(df, g, d)


def test_s_factor_values():
    df = DiscriminantForm(4)
    assert df.s_factor(0) == 1
    assert df.s_factor(4) == 1   # the residue m
    assert df.s_factor(3) == 2
    assert df.s_factor(-3) == 2


def test_milgram_exact_through_50():
    for m in range(1, 51):
        assert DiscriminantForm(m).milgram_check(), m


def test_milgram_sum_closed_form():
    df = DiscriminantForm(5)
    assert df.milgram_sum() == sqrt_nat(10) * root_of_unity(1, 8)


def test_milgram_wrong_signature_fails():
    for m in (1, 2, 7, 12):
        assert not DiscriminantForm(m, (2, 2)).milgram_check()
        assert not DiscriminantForm(m, (3, 0)).milgram_check()


def test_signature_consistent_flag():
    assert DiscriminantForm(6).signature_consistent()
    assert not DiscriminantForm(6, (2, 2)).signature_consistent()


def test_square_classes_brute_force():
    for m in (1, 2, 3, 4, 5, 7):
        n4 = 4 * m
        squares = {(g * g) % n4 for g in range(n4)}
        assert square_classes(m, 0) == squares
        assert square_classes(m, 2) == squares
        minus = {(-s) % n4 for s in squares}
        assert square_classes(m, 1) == minus
        assert square_classes(m, 3) == minus


def test_square_classes_m1_concrete():
    assert square_classes(1, 0) == {0, 1}
    assert square_classes(1, 1) == {0, 3}


def test_field_order_covers_eighth_roots():
    for m in (1, 2, 3, 6):
        assert DiscriminantForm(m).field_order % 8 == 0
        assert DiscriminantForm(m).field_order % (4 * m) == 0
