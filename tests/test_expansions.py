"""Stored expansions, incomplete Gamma, numeric evaluation, harmonicity."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
import scipy.integrate
from mpmath import gamma as mp_gamma, jtheta, mp, mpc, mpf, exp, pi

from weilforms.discform import DiscriminantForm
from weilforms.expansions import (
    HarmonicExpansion,
    TruncationError,
    VectorForm,
    default_precision,
    eval_point,
    inc_gamma,
    laplacian_fd,
    plus_space_check,
    random_plus_expansion,
    theta_expansion,
    verify_S_transform,
)
from weilforms.isomap import split_to_vector

HALF_AS = [Fraction(-5, 2), Fraction(-3, 2), Fraction(-1, 2),
           Fraction(1, 2), Fraction(1), Fraction(3, 2)]
YS = [0.1, 1.0, 10.0]


def _quad_oracle(a, y):
    """Adaptive quadrature for Gamma(a, y), split to tame the singularity."""
    af, yf = float(a), float(y)
    val, err = scipy.integrate.quad(
        lambda t: t ** (af - 1) * math.exp(-t), yf, math.inf,
        limit=400, epsabs=1e-300, epsrel=1e-13,
    )
    return val


def test_inc_gamma_against_quadrature():
    for a in HALF_AS:
        for y in YS:
            got = float(inc_gamma(a, y))
            want = _quad_oracle(a, y)
            assert abs(got - want) <= 1e-12 * abs(want), (a, y)


def test_inc_gamma_against_mpmath():
    mp.prec = 160
    for a in HALF_AS:
        for y in YS:
            got = inc_gamma(a, y, 160)
            want = mpmath.gammainc(mpf(a.numerator) / a.denominator, mpf(y))
            assert abs(got - want) <= mpf(2) ** -140 * (1 + abs(want)), (a, y)


def test_inc_gamma_recurrence_exactly_links_ladder():
    mp.prec = 128
    for a in HALF_AS:
        for y in YS:
            yy = mpf(y)
            lhs = inc_gamma(a + 1, y)
            rhs = mpf(a.numerator) / a.denominator * inc_gamma(a, y) \
                + yy ** (mpf(a.numerator) / a.denominator) * exp(-yy)
            assert abs(lhs - rhs) < mpf(2) ** -100 * (1 + abs(lhs))


def test_inc_gamma_rejects_out_of_scope():
    with pytest.raises(ValueError):
        inc_gamma(0, 1.0)
    with pytest.raises(ValueError):
        inc_gamma(-2, 1.0)
    with pytest.raises(ValueError):
        inc_gamma(Fraction(1, 3), 1.0)
    with pytest.raises(ValueError):
        inc_gamma(Fraction(1, 2), -1.0)


def test_default_precision_env(monkeypatch):
    monkeypatch.setenv("WEIL_PRECISION_BITS", "200")
    assert default_precision() == 200
    monkeypatch.setenv("WEIL_PRECISION_BITS", "53")
    assert default_precision() == 53
    for bad in ("10", "52", "junk", "abc", "128.5"):
        monkeypatch.setenv("WEIL_PRECISION_BITS", bad)
        with pytest.raises(ValueError):
            default_precision()
    monkeypatch.delenv("WEIL_PRECISION_BITS")
    assert default_precision() == 128


def test_container_validation():
    with pytest.raises(ValueError):
        HarmonicExpansion(2, {})                       # even weight_num
    with pytest.raises(ValueError):
        HarmonicExpansion(1, {}, {1: 1})               # c- at n >= 0
    with pytest.raises(ValueError):
        HarmonicExpansion(1, {5: 1}, window=(0, 3))    # c+ outside window
    with pytest.raises(ValueError):
        HarmonicExpansion(1, {}, {-4: 1}, window=(-2, 2))
    with pytest.raises(ValueError):
        HarmonicExpansion(1, {}, window=(3, -3))
    f = HarmonicExpansion(3, {0: 1, 2: 0})
    assert 2 not in f.c_plus                           # zero values dropped
    assert f.weight == Fraction(3, 2) and f.k == 1


def test_index_normalization():
    f = HarmonicExpansion(1, {Fraction(4, 2): 1, Fraction(5, 4): 2},
                          window=(Fraction(-1, 4), 3))
    assert f.c_plus[2] == 1
    assert f.c_plus[Fraction(5, 4)] == 2


def test_theta_coefficients_and_window():
    th = theta_expansion(30)
    assert th.c_plus == {0: 1, 1: 2, 4: 2, 9: 2, 16: 2, 25: 2}
    assert th.window == (-30, 30)
    assert not th.c_minus


def test_plus_space_membership_m1():
    th = theta_expansion(50)
    assert plus_space_check(th, 1, 0)
    # shifting the support off the square classes must fail
    bad = HarmonicExpansion(1, {2: 1}, window=(-4, 4))
    assert not plus_space_check(bad, 1, 0)
    for n in (2, 3, 6):
        assert not plus_space_check(
            HarmonicExpansion(1, {n: 1}, window=(-8, 8)), 1, 0), n
    # 5 = 1 mod 4 is a square class member even though 5 is not a square
    assert plus_space_check(HarmonicExpansion(1, {5: 1}, window=(-8, 8)), 1, 0)
    # k odd flips the classes to -1 times squares
    assert plus_space_check(HarmonicExpansion(3, {3: 1}, window=(-8, 8)), 1, 1)
    assert not plus_space_check(HarmonicExpansion(3, {1: 1}, window=(-8, 8)), 1, 1)


def test_plus_space_rejects_fractional_support():
    f = HarmonicExpansion(1, {Fraction(1, 4): 1}, window=(-1, 1))
    assert not plus_space_check(f, 1, 0)


def test_theta_value_at_lattice_points():
    mp.prec = 128
    th = theta_expansion(400)
    # sum e^(-pi s^2) = pi^(1/4) / Gamma(3/4), a classical closed form; the
    # q = e^(2 pi i tau) convention puts it at tau = i/2
    val, bound = eval_point(th, 0.5j, accuracy=1e-20)
    want = pi ** mpf("0.25") / mp_gamma(mpf("0.75"))
    assert abs(val - want) < 1e-30
    # and the jtheta oracle at tau = i
    val_i, _ = eval_point(th, 1j, accuracy=1e-20)
    assert abs(val_i - jtheta(3, 0, exp(-2 * pi))) < 1e-30


def test_eval_bound_honest_under_window_doubling():
    mp.prec = 128
    rng = random.Random(41)
    small = theta_expansion(100)
    big = theta_expansion(400)
    for _ in range(5):
        tau = mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.12, 2.0))
        v1, b1 = eval_point(small, tau, accuracy=float("inf"))
        v2, _ = eval_point(big, tau, accuracy=float("inf"))
        assert abs(v1 - v2) <= b1


def test_eval_refuses_unattainable_accuracy():
    th = theta_expansion(5)
    with pytest.raises(TruncationError):
        eval_point(th, 0.02j, accuracy=1e-10)


def test_eval_principal_part_formula():
    mp.prec = 128
    f = HarmonicExpansion(1, {-4: Fraction(3, 2)}, {-4: 2}, window=(-6, 6))
    tau = mpc("0.3", "0.8")
    val, _ = eval_point(f, tau, accuracy=1e-6, growth_exponent=0)
    y = tau.imag
    q4 = exp(2j * pi * -4 * tau)
    want = mpf(3) / 2 * q4 + 2 * inc_gamma(Fraction(1, 2), 16 * pi * y) * q4
    assert abs(val - want) < mpf(2) ** -100


def test_laplacian_annihilates_stored_terms():
    mp.prec = 128
    tau = mpc("0.21", "1.1")
    wide = (-10**6, 10**6)
    for k in (0, 1, 2):
        hol = HarmonicExpansion(2 * k + 1, {3: 1}, window=wide)
        non = HarmonicExpansion(2 * k + 1, {}, {-2: 1}, window=wide)
        for f in (hol, non):
            res = laplacian_fd(f, k, tau, 1e-3, accuracy=1.0)
            assert abs(res) < 1e-4, (k, f)


def test_laplacian_quadratic_convergence():
    mp.prec = 160
    tau = mpc("0.21", "1.1")
    f = HarmonicExpansion(3, {}, {-1: 1}, window=(-10**6, 10**6))
    r1 = abs(laplacian_fd(f, 1, tau, 1e-2, accuracy=1.0))
    r2 = abs(laplacian_fd(f, 1, tau, 5e-3, accuracy=1.0))
    assert 3.0 < r1 / r2 < 5.0


def test_laplacian_flags_non_harmonic():
    mp.prec = 128
    tau = mpc("0.21", "1.1")
    res = laplacian_fd(lambda t: t.imag ** 3, 1, tau, 1e-3)
    assert abs(res) > 1e-2


def test_vector_form_structure():
    df = DiscriminantForm(2)
    comp = HarmonicExpansion(1, {Fraction(1, 8): 1}, window=(-1, 1))
    with pytest.raises(ValueError):
        VectorForm(df, 3, {1: comp})      # weight mismatch
    F = VectorForm(df, 1, {5: comp})      # index mod 2m
    assert F.components[1] == comp
    assert F.components[0].is_zero()      # filled with the shared window
    assert F.components[0].window == (-1, 1)
    assert F.support_congruence_ok()
    assert not F.is_symmetric()


def test_support_congruence_dual_flips_sign():
    df = DiscriminantForm(1)
    comp = HarmonicExpansion(1, {Fraction(-1, 4): 1}, window=(-1, 1))
    assert VectorForm(df, 1, {1: comp}, dual=True).support_congruence_ok()
    assert not VectorForm(df, 1, {1: comp}, dual=False).support_congruence_ok()


def test_T_transform_on_split_theta():
    F = split_to_vector(theta_expansion(60), 1, 0)
    assert F.support_congruence_ok()


def test_S_transform_theta_positive_and_controls():
    mp.prec = 160
    F = split_to_vector(theta_expansion(400), 1, 0)
    rep = verify_S_transform(F, [1j, mpc("0.3333", "1"), mpc("-0.5", "2")], 1e-8)
    assert rep.passed
    assert rep.max_deviation < 1e-20

    # wrong representation type: same data with the dual flag flipped
    wrong = VectorForm(F.df, F.weight_num,
                       {g: F.components[g] for g in range(2)}, dual=True)
    rep_wrong = verify_S_transform(wrong, [1j], 1e-8)
    assert not rep_wrong.passed

    # corrupted coefficient
    comps = {g: F.components[g] for g in range(2)}
    broken = dict(comps[0].c_plus)
    broken[0] = broken[0] + Fraction(1, 97)
    comps[0] = HarmonicExpansion(1, broken, window=comps[0].window)
    rep_bad = verify_S_transform(
        VectorForm(F.df, F.weight_num, comps), [1j], 1e-8)
    assert not rep_bad.passed


def test_random_plus_expansion_properties():
    rng = random.Random(42)
    for m in (1, 2, 3, 4):
        for k in (0, 1):
            f = random_plus_expansion(m, k, rng)
            assert plus_space_check(f, m, k)
            assert f.weight_num == 2 * k + 1
            assert any(n < 0 for n in f.c_minus) or not f.c_minus
