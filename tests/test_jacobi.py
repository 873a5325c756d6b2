"""Jacobi forms: theta series, decomposition, heat and Casimir checks."""

import random
from fractions import Fraction

import pytest
from mpmath import exp, jtheta, mp, mpc, mpf, pi

from weilforms import jacobi
from weilforms.expansions import (TruncationError, eval_point, fd_halving_check, inc_gamma,
                                  plus_space_check)
from weilforms.isomap import split_to_vector
from weilforms.jacobi import (
    JacobiForm,
    _class_sum,
    _numeric_components,
    casimir_reduced_fd,
    decomposition_consistency_check,
    heat_operator_term_check,
    jacobi_eval_direct,
    random_jacobi_form,
    reconstruct,
    theta_decompose,
    theta_series_eval,
    thm2_map,
)


def test_constructor_validation():
    with pytest.raises(ValueError):
        JacobiForm(Fraction(1, 2), 1, {})
    with pytest.raises(ValueError):
        JacobiForm(2, 0, {})
    with pytest.raises(ValueError):
        JacobiForm(2, 1, {(2, 1): 1})            # 2 != 1 mod 4
    with pytest.raises(ValueError):
        JacobiForm(2, 1, {}, {(-4, 0): 1})       # c_minus needs D > 0
    with pytest.raises(ValueError):
        JacobiForm(2, 1, {(1, 1): 1, (1, 3): 2})  # same class, two values
    with pytest.raises(ValueError):
        JacobiForm(2, 1, {(8, 0): 1}, d_max=4)


def test_key_normalization():
    phi = JacobiForm(2, 3, {(1, 7): 5, (1, 1): 5, (4, -2): 0})
    assert phi.c_plus == {(1, 1): 5}
    assert phi.is_zero() is False
    assert JacobiForm(2, 3, {}).is_zero()


def test_d_max_covers_both_parts():
    phi = JacobiForm(2, 1, {(0, 0): 1}, {(8, 0): 2})
    assert phi.d_max == 8
    # equality sees the declared horizon, not just the stored keys
    assert JacobiForm(2, 1, {(0, 0): 1}) != JacobiForm(2, 1, {(0, 0): 1}, d_max=4)


def test_theta_against_jtheta():
    mp.prec = 160
    tau = mpc("0.31", "0.9")
    z = mpc("0.12", "0.05")
    q = exp(2j * pi * tau)
    v0, b0 = theta_series_eval(1, 0, tau, z, 30)
    v1, b1 = theta_series_eval(1, 1, tau, z, 30)
    assert abs(v0 - jtheta(3, 2 * pi * z, q)) < mpf(2) ** -120
    assert abs(v1 - jtheta(2, 2 * pi * z, q)) < mpf(2) ** -120
    assert b0 < mpf(2) ** -120 and b1 < mpf(2) ** -120


def test_theta_reference_value():
    mp.prec = 80
    val, bound = theta_series_eval(1, 0, 1j, 0, 12)
    # 1 + 2 e^(-2 pi) + 2 e^(-8 pi) + ...
    direct = sum(exp(-2 * pi * n * n) for n in range(-12, 13))
    assert abs(val - direct) < mpf(2) ** -75
    assert abs(val - mpf("1.0037348854877391")) < 1e-15
    assert bound < 1e-50


def test_theta_reflection():
    mp.prec = 120
    tau = mpc("0.2", "1.3")
    z = mpc("-0.07", "0.11")
    for mu in range(6):
        a, _ = theta_series_eval(3, mu, tau, z, 40)
        b, _ = theta_series_eval(3, -mu, tau, -z, 40)
        assert abs(a - b) < mpf(2) ** -100, mu


def _termwise(m, d, rc, tau, z, radius):
    """The class sum term by term, one exp each, and the sum of |terms|."""
    terms = [exp(2j * pi * (mpf(r * r - d) / (4 * m) * tau + r * z))
             for r in range(-radius, radius + 1) if (r - rc) % (2 * m) == 0]
    return sum(terms, mpc(0)), sum((abs(t) for t in terms), mpf(0))


def _assert_class_sum_within(prec, m, d, rc, tau, z, radius):
    # the bound the _class_sum docstring derives: the walk errs by
    # 2^(-prec - 2) sum|terms| and the one rounding to prec by 2^-prec |sum|
    with mp.workprec(prec):
        got = _class_sum(m, d, rc, tau, z, radius)
    with mp.workprec(2 * prec):
        want, size = _termwise(m, d, rc, tau, z, radius)
        err = abs(got - want)
        bound = mpf(2) ** -prec * abs(want) + mpf(2) ** (-prec - 2) * size
    assert err <= bound, (prec, m, rc, d, tau, z, radius)


def test_class_sum_matches_termwise_exp():
    # every residue of m in {1, 2, 3, 5, 7}, D = 0 (theta), D < 0 and D > 0
    # (the c_minus classes), Im z of both signs and zero, and radii from an
    # empty class range to 200 steps of the walk at m = 1
    for prec in (128, 256):
        with mp.workprec(prec):
            points = [(mpc("0.31", "0.9"), mpc("0.12", "0.05")),
                      (mpc("-0.43", "0.05"), mpc("0.27", "-0.35")),
                      (mpc("0.5", "1.7"), mpc("-0.2", "0"))]
        for m in (1, 2, 3, 5, 7):
            for rc in range(2 * m):
                r0 = min(rc, 2 * m - rc)
                radii = {0, 1, 2 * m - 1, 60, 200} | ({r0 - 1} if r0 else set())
                for j, d in enumerate((0, rc * rc - 4 * m * (m + 3), rc * rc + 20 * m)):
                    tau, z = points[(rc + j) % 3]  # each (m, rc) meets every point
                    for radius in sorted(radii):
                        _assert_class_sum_within(prec, m, d, rc, tau, z, radius)
    # the walk's ratio and step keep their own binary exponents: at these
    # points |s| = |q^2m| falls to e^-75 and the terms first rise by 2^40
    # and more, and a step or ratio held in absolute units loses every bit;
    # 512 bits, a large D > 0 and a walk of 300 steps a side at m = 1
    for prec in (128, 256, 512):
        with mp.workprec(prec):
            points = [(mpc("0.2", "0.5"), mpc("0.1", "-0.6")),
                      (mpc("0.1", "3"), mpc("0.4", "0.9"))]
        for m, radius in ((1, 600), (2, 60), (3, 200)):
            for rc, d in ((0, 0), (m, m * m + 400 * m)):
                for tau, z in points:
                    _assert_class_sum_within(prec, m, d, rc, tau, z, radius)


def test_class_sum_mpmath_work_is_flat_in_radius(monkeypatch):
    # the walk runs on integers: the mpmath complex products and sums of one
    # class (the three exp arguments and s) do not grow with its terms
    calls = []
    for name in ("__mul__", "__rmul__", "__add__"):
        method = getattr(mpc, name)
        monkeypatch.setattr(mpc, name,
                            lambda self, other, _f=method: calls.append(1) or _f(self, other))
    tau, z = mpc("0.13", "1.05"), mpc("0.06", "0.02")
    used = []
    for radius in (60, 600):
        calls.clear()
        with mp.workprec(128):
            _class_sum(1, 0, 0, tau, z, radius)
        used.append(len(calls))
    assert 0 < used[0] == used[1], used


def test_direct_route_sums_each_stored_class(monkeypatch):
    # criterion 11 compares the direct sum with sum_mu h_mu theta_mu; the
    # direct route must sum every stored class once with its own D, never
    # reuse the D = 0 theta sums of the decomposed route
    phi = random_jacobi_form(2, 3, random.Random(11))
    seen = []
    kernel = jacobi._class_sum
    monkeypatch.setattr(jacobi, "_class_sum",
                        lambda m, d, rc, *a: seen.append((d, rc)) or kernel(m, d, rc, *a))
    jacobi_eval_direct(phi, mpc("0.13", "1.1"), mpc("0.21", "0.05"), 40, precision=128)
    assert sorted(seen) == sorted(list(phi.c_plus) + list(phi.c_minus))
    assert any(d for d, _ in seen)


def test_theta_tail_bound_is_honest():
    mp.prec = 160
    tau = mpc("0.1", "0.6")
    z = mpc("0.3", "0.25")
    coarse, bound = theta_series_eval(2, 1, tau, z, 8)
    fine, fine_bound = theta_series_eval(2, 1, tau, z, 200)
    assert fine_bound < mpf(2) ** -150
    assert abs(coarse - fine) <= bound


def test_theta_rejects_hopeless_truncation():
    with pytest.raises(TruncationError):
        theta_series_eval(1, 0, 0.05j, 0.9j, 3)
    with pytest.raises(ValueError):
        theta_series_eval(1, 0, -1j, 0, 5)


def test_decompose_single_classes():
    phi = JacobiForm(2, 1, {(-4, 0): 3, (1, 1): 5}, {(8, 0): 7})
    hs = theta_decompose(phi)
    assert hs.weight_num == 3 and hs.dual
    assert hs.components[0].c_plus == {1: 3}
    assert hs.components[0].c_minus == {-2: 7}
    assert hs.components[1].c_plus == {Fraction(-1, 4): 5}
    assert hs.components[0].window == (-2, 1)
    assert hs.components[1].window == (-2, 1)


def test_reconstruct_inverts_decompose():
    rng = random.Random(20260825)
    for m in (1, 2, 3, 5):
        for k in (0, 1, 2, 3):
            for _ in range(10):
                phi = random_jacobi_form(k, m, rng)
                assert reconstruct(theta_decompose(phi), m) == phi


def test_reconstruct_gates():
    phi = random_jacobi_form(2, 2, random.Random(7))
    hs = theta_decompose(phi)
    with pytest.raises(ValueError):
        reconstruct(hs, 3)
    plain = type(hs)(hs.df, hs.weight_num, dict(hs.components), dual=False)
    with pytest.raises(ValueError):
        reconstruct(plain, 2)


def test_heat_operator_kills_theta_terms():
    for m in range(1, 11):
        for r in range(-25, 26):
            assert heat_operator_term_check(m, r) == 0, (m, r)


def test_gamma_argument_bookkeeping():
    # a single c_minus class evaluated directly must match the generic
    # vector-component evaluation times the theta value: both sides hinge
    # on Gamma(3/2 - k, pi D y / m) = Gamma(1 - (k - 1/2), 4 pi |n| y)
    mp.prec = 128
    k, m, d, r = 2, 3, 13, 1
    phi = JacobiForm(k, m, {}, {(d, r): 1})
    tau = mpc("0.11", "0.8")
    z = mpc("0.04", "0.03")
    direct, _ = jacobi_eval_direct(phi, tau, z, 80)
    hs = theta_decompose(phi)
    total = mpc(0)
    for g in range(2 * m):
        hv, _ = eval_point(hs.components[g], tau, accuracy=float("inf"))
        tv, _ = theta_series_eval(m, g, tau, z, 80)
        total += hv * tv
    assert abs(direct - total) < mpf(2) ** -100
    y = tau.imag
    gam = inc_gamma(Fraction(3, 2) - k, pi * d * y / m)
    vector_gam = inc_gamma(
        Fraction(1, 2) - (k - 1), 4 * pi * abs(Fraction(-d, 4 * m)) * y)
    assert abs(gam - vector_gam) < mpf(2) ** -110 * abs(gam)


def test_decomposition_consistency():
    rng = random.Random(5150)
    pts = [(mpc("0.13", "1.1"), mpc("0.21", "0.05")),
           (1j, mpf("0.4")),
           (mpc("-0.5", "0.8"), mpc("0", "0.1"))]
    for m in (1, 3):
        phi = random_jacobi_form(2, m, rng)
        rep = decomposition_consistency_check(phi, pts)
        assert rep.passed, rep


def _consistency_per_component(phi, points, truncation, prec):
    """Deviations and bounds with one theta_series_eval (and tail) per mu."""
    comps = _numeric_components(phi)
    deviations, bounds = [], []
    with mp.workprec(prec):
        for tau, z in points:
            direct, combined = jacobi_eval_direct(phi, tau, z, truncation, precision=prec)
            total = mpc(0)
            for g in range(2 * phi.m):
                hv, hb = eval_point(comps[g], tau, accuracy=float("inf"), precision=prec)
                tv, tb = theta_series_eval(phi.m, g, tau, z, truncation, precision=prec)
                total += hv * tv
                combined += abs(hv) * tb + abs(tv) * hb + hb * tb
            deviations.append(abs(direct - total))
            bounds.append(combined)
    return deviations, bounds


def test_decomposition_check_bounds_theta_tail_once_per_point(monkeypatch):
    # the tail depends on the point only: the direct route bounds it once
    # and the decomposed route once for all 2m classes, not once per class
    rng = random.Random(5150)
    pts = [(mpc("0.13", "1.1"), mpc("0.21", "0.05")), (1j, mpf("0.4"))]
    m, prec = 5, 128
    phi = random_jacobi_form(2, m, rng)
    tails = []
    tail = jacobi._theta_tail
    monkeypatch.setattr(jacobi, "_theta_tail", lambda *a: tails.append(a) or tail(*a))
    rep = decomposition_consistency_check(phi, pts, precision=prec)
    assert len(tails) == 2 * len(pts)
    tails.clear()
    deviations, bounds = _consistency_per_component(phi, pts, 60, prec)
    assert len(tails) == (2 * m + 1) * len(pts)
    assert rep.deviations == [float(d) for d in deviations]
    assert rep.bounds == [float(b) for b in bounds]
    assert rep.passed


def test_casimir_annihilates_harmonic_terms():
    mp.prec = 128
    pt = (mpc("0.13", "1.05"), mpc("0.06", "0.02"))
    hol = JacobiForm(2, 1, {(1, 1): 1})
    non = JacobiForm(2, 1, {}, {(4, 0): 1})
    for phi in (hol, non):
        res = casimir_reduced_fd(phi, 2, 1, pt, 1e-3)
        assert abs(res) < 1e-4, phi
    zero = casimir_reduced_fd(JacobiForm(2, 1, {}), 2, 1, pt, 1e-3)
    assert abs(zero) == 0


def test_casimir_quadratic_convergence():
    mp.prec = 160
    pt = (mpc("0.13", "1.05"), mpc("0.06", "0.02"))
    phi = JacobiForm(2, 1, {(1, 1): 1})
    r1 = abs(casimir_reduced_fd(phi, 2, 1, pt, 1e-2))
    r2 = abs(casimir_reduced_fd(phi, 2, 1, pt, 5e-3))
    assert 3.0 < r1 / r2 < 5.0


def test_casimir_reuses_component_values(monkeypatch):
    # the JacobiForm route evaluates the 2m components once per stencil tau
    # (5 of them) and must agree with a callable that re-evaluates
    # sum_mu h_mu theta_mu at each of the 17 stencil points, summing each
    # theta class over the radius the JacobiForm route picks
    prec, h = 128, mpf(1e-3)
    pt = (mpc("0.13", "1.05"), mpc("0.06", "0.02"))
    rng = random.Random(4)
    for m in (1, 2, 3):
        phi = random_jacobi_form(2, m, rng)
        comps = _numeric_components(phi)
        with mp.workprec(prec):
            radius = jacobi._theta_truncation_for(
                m, pt[0].imag - 2 * h, abs(pt[1].imag) + 2 * h, 0.7 * prec + 40)

        def summed(t, z):
            return sum((eval_point(c, t, accuracy=1e-20, precision=prec)[0]
                        * theta_series_eval(m, g, t, z, radius, precision=prec)[0]
                        for g, c in comps.items()), mpc(0))

        calls = []
        counted = jacobi.eval_point
        monkeypatch.setattr(jacobi, "eval_point",
                            lambda *a, **kw: calls.append(a) or counted(*a, **kw))
        got = casimir_reduced_fd(phi, 2, m, pt, 1e-3, precision=prec)
        assert len(calls) == 5 * 2 * m
        want = casimir_reduced_fd(summed, 2, m, pt, 1e-3, precision=prec)
        assert abs(got - want) <= mpf(2) ** (12 - prec) * abs(want), m
        monkeypatch.undo()
    flagged = casimir_reduced_fd(lambda t, z: mpc(t).imag ** 3, 2, 1, pt, 1e-3,
                                 precision=prec)
    assert abs(flagged) > 1e-2


def test_casimir_checks_theta_tail_once(monkeypatch):
    # every stencil point shares Im z, so one tail check at the least Im tau
    # decides; the radius it picks keeps that tail below e^-(0.7 prec + 40),
    # also at small Im tau and large Im z, and a stencil leaving the upper
    # half plane is rejected
    phi = JacobiForm(2, 1, {(1, 1): 1})
    tails = []
    tail = jacobi._theta_tail

    def recorded(*a):
        tails.append((a[1], tail(*a)))
        return tails[-1][1]

    monkeypatch.setattr(jacobi, "_theta_tail", recorded)
    casimir_reduced_fd(phi, 2, 1, (0.13 + 1.05j, 0.06 + 0.02j), 1e-3, precision=128)
    assert len(tails) == 1 and abs(tails[0][0] - mpc(0.13, 1.049)) < 1e-12
    casimir_reduced_fd(phi, 2, 1, (0.1 + 0.05j, 0.2 + 0.4j), 1e-3, precision=128)
    assert len(tails) == 2
    assert all(bound < mp.exp(-(0.7 * 128 + 40)) for _, bound in tails)
    with pytest.raises(ValueError, match="upper half plane"):
        casimir_reduced_fd(phi, 2, 1, (0.1 + 1e-3j, 0j), 1e-3, precision=128)


def test_casimir_flags_non_harmonic():
    mp.prec = 128
    pt = (mpc("0.13", "1.05"), mpc("0.06", "0.02"))
    res = casimir_reduced_fd(lambda t, z: mpc(t).imag ** 3, 2, 1, pt, 1e-3)
    assert abs(res) > 1e-2


def test_casimir_halving_rule():
    # criterion 10: halving h divides a harmonic form's residual by about 4
    # and leaves the non-harmonic probe's residual where it was
    pt = (mpc("0.13", "1.05"), mpc("0.06", "0.02"))

    def residual(target):
        return lambda h: casimir_reduced_fd(target, 2, 1, pt, h, precision=160)

    *_, ratio, passed = fd_halving_check(residual(JacobiForm(2, 1, {(1, 1): 1})), 1e-2)
    assert passed and 3.9 < ratio < 4.1
    *_, ratio, passed = fd_halving_check(residual(lambda t, z: mpc(t).imag ** 3), 1e-3)
    assert not passed and abs(ratio - 1) < 1e-3
    assert fd_halving_check(residual(JacobiForm(2, 1, {})), 1e-3)[2:] == (None, False)


def test_thm2_roundtrip_corpus():
    rng = random.Random(20260825)
    for m in (1, 2, 3, 5):
        for k in (0, 2, 4):
            for _ in range(6):
                phi = random_jacobi_form(k, m, rng)
                f = thm2_map(phi)
                assert f.weight_num == 2 * k - 1
                assert plus_space_check(f, m, k - 1)
                assert split_to_vector(f, m, k - 1) == theta_decompose(phi)


def test_thm2_gates():
    rng = random.Random(11)
    with pytest.raises(ValueError):
        thm2_map(random_jacobi_form(3, 2, rng))
    with pytest.raises(ValueError):
        thm2_map(random_jacobi_form(2, 4, rng))
    thm2_map(random_jacobi_form(2, 4, rng), allow_composite=True)
    lopsided = JacobiForm(2, 3, {(1, 1): 1})
    with pytest.raises(ValueError):
        thm2_map(lopsided)


def test_random_form_elliptic_parity():
    rng = random.Random(31)
    for k in (0, 1, 2, 3):
        for m in (1, 2, 3):
            phi = random_jacobi_form(k, m, rng)
            sign = -1 if k % 2 else 1
            for table in (phi.c_plus, phi.c_minus):
                for (d, r), v in table.items():
                    assert table[(d, (-r) % (2 * m))] == sign * v
            if k % 2:
                for table in (phi.c_plus, phi.c_minus):
                    assert all(r not in (0, m) for _, r in table)
    assert random_jacobi_form(1, 1, random.Random(1)).is_zero()
