"""Acceptance gate: one test and one printed verdict line per criterion.

Each test prints "CRITERION nn: PASS/FAIL - detail" before asserting, so a
plain `pytest -s tests/test_acceptance.py` reads as a checklist.

Criterion 2 checks the relations of Mp2(Z), not those of SL2(Z).  The
weight is half-integral, so rho is a representation of Mp2(Z), generated
by S and T with S^2 = (ST)^3 = Z and Z^4 = 1.  There S^4 = Z^2 =
((1 0; 0 1), -1) is not the identity, and rho(Z^2) = e(-sigma/2) I, which
is -I for sigma = b+ - b- = 1.  The braid relation fixes the scalar of
rho(S) at e(-sigma/8)/sqrt(2m), so no S-matrix satisfies both it and
rho(S)^4 = I.  The criterion asserts rho(S)^4 = rho(Z^2) = -I entry by
entry, rho(S)^8 = I, rho(S)^4 != I and (rho(S)rho(T))^3 = rho(S)^2.

Criteria that raise the mpmath precision do so in `mp.workprec`, so no
test leaves the global `mp.prec` changed for the next one.
"""

import math
import random
import time
from fractions import Fraction

import scipy.integrate
from mpmath import mp, mpc, mpf

from weilforms.arith import euler_phi, inverse_mod
from weilforms.cyclo import root_of_unity
from weilforms.discform import DiscriminantForm
from weilforms.expansions import (
    HarmonicExpansion,
    fd_halving_check,
    inc_gamma,
    laplacian_fd,
    plus_space_check,
    random_plus_expansion,
    theta_expansion,
    verify_S_transform,
)
from weilforms.isomap import (
    f_j_consistency_check,
    gauss_sum_identity_check,
    rank_lemma_check,
    split_to_vector,
    combine_to_scalar,
)
from weilforms.jacobi import (
    JacobiForm,
    casimir_reduced_fd,
    decomposition_consistency_check,
    heat_operator_term_check,
    random_jacobi_form,
    reconstruct,
    theta_decompose,
    thm2_map,
)
from weilforms.metaplectic import (
    MP_IDENTITY,
    MP_S,
    MP_T,
    MP_Z,
    MpElement,
    mp_pow,
    mp_tilde,
)
from weilforms.weilrep import (
    WeilMatrix,
    borcherds_eigencheck,
    identity_matrix,
    rho_eval,
    rho_S,
    rho_T,
    shintani_unipotent,
)

SEED = 20260825


def _line(num: int, ok: bool, detail: str) -> str:
    text = f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(text)
    return text


def test_criterion_01_milgram():
    t0 = time.perf_counter()
    good = all(DiscriminantForm(m).milgram_check() for m in range(1, 51))
    control_fails = all(
        not DiscriminantForm(m, (2, 2)).milgram_check() for m in range(1, 51)
    )
    elapsed = time.perf_counter() - t0
    ok = good and control_fails and elapsed < 10
    detail = (f"signature (2,1) exact for m <= 50, (2,2) control fails, "
              f"{elapsed:.1f}s of 10s")
    text = _line(1, ok, detail)
    assert ok, text


def test_criterion_02_weil_relations():
    t0 = time.perf_counter()
    z2 = MpElement(1, 0, 0, 1, -1)
    group_ok = (mp_pow(MP_S, 4) == z2 and mp_pow(MP_Z, 2) == z2
                and z2 != MP_IDENTITY and mp_pow(MP_S, 8) == MP_IDENTITY)
    failures = []
    for m in range(1, 13):
        df = DiscriminantForm(m)
        n = df.size
        center = root_of_unity(-df.signature_delta, 2)  # e(-sigma/2)
        for dual in (False, True):
            S = rho_eval(df, MP_S, dual=dual)
            T = rho_eval(df, MP_T, dual=dual)
            s2 = S @ S
            s4 = s2 @ s2
            st = S @ T
            checks = {
                "S^4 = e(-sigma/2) I": all(
                    s4.entry(i, j) == (center if i == j else 0)
                    for i in range(n) for j in range(n)
                ),
                "rho(Z^2) = S^4": rho_eval(df, z2, dual=dual) == s4,
                "S^8 = I": (s4 @ s4).is_identity(),
                "S^4 != I": not s4.is_identity(),
                "(ST)^3 = S^2": st @ (st @ st) == s2,
            }
            failures += [(m, dual, name) for name, ok in checks.items() if not ok]
    elapsed = time.perf_counter() - t0
    ok = group_ok and not failures and elapsed < 30
    detail = (
        f"in Mp2(Z) S^4 = Z^2 = ((1 0; 0 1), -1) != 1 and S^8 = 1 "
        f"({'ok' if group_ok else 'wrong'}); for m <= 12 both types "
        f"rho(S)^4 = rho(Z^2) = -I entrywise, rho(S)^8 = I, rho(S)^4 != I and "
        f"(rho(S)rho(T))^3 = rho(S)^2"
        + (f" fail at {failures[:4]}" if failures else " hold")
        + f"; {elapsed:.1f}s of 30s"
    )
    text = _line(2, ok, detail)
    assert ok, text


def test_criterion_03_shintani():
    ok = True
    for m in range(1, 11):
        df = DiscriminantForm(m)
        ones = WeilMatrix(df, [[{0: 1}] for _ in range(df.size)], 0)
        for n in range(-5, 6):
            mat = rho_eval(df, mp_tilde((1, 0, n, 1)))
            if shintani_unipotent(df, n) != mat:
                ok = False
            if mat @ ones != ones:
                ok = False
    text = _line(3, ok, "closed form matches rho_eval for n in [-5,5], m <= 10; "
                        "all-ones vector fixed exactly")
    assert ok, text


def _random_gamma0(m, rng, negative_a=False):
    n4 = 4 * m
    while True:
        c = n4 * rng.randrange(-4, 5)
        if c == 0:
            if negative_a:
                continue
            return (1, rng.randrange(-9, 10), 0, 1)
        a = rng.randrange(-15, 16)
        if a == 0:
            continue
        if negative_a and a > 0:
            a = -a
        try:
            d = inverse_mod(a, abs(c))
        except ValueError:
            continue
        while d <= 0:
            d += abs(c)
        if (a * d - 1) % c:
            continue
        return (a, (a * d - 1) // c, c, d)


def test_criterion_04_borcherds_eigen_identity():
    rng = random.Random(SEED)
    ok = True
    negatives = 0
    for m in (1, 2, 3, 5, 7):
        df = DiscriminantForm(m)
        for i in range(50):
            g = _random_gamma0(m, rng, negative_a=(i % 5 == 0))
            if g[0] < 0:
                negatives += 1
            _, holds = borcherds_eigencheck(df, g)
            if not holds:
                ok = False
    ok = ok and negatives >= 25
    text = _line(4, ok, f"exact for 50 random level-4m elements per index, "
                        f"{negatives} with a < 0")
    assert ok, text


def test_criterion_05_rank_protocol():
    t0 = time.perf_counter()
    summaries = []
    surfaced = True
    for m in (1, 2, 3, 5, 7, 11, 13):
        rep = rank_lemma_check(m)
        summaries.append(f"m={m}: rank {rep.rank} vs claimed "
                         f"{rep.expected_rank} ({'=' if rep.rank_matches else '!='})")
        # the predicted table must be corrected exactly on the negation cells
        if m not in (1, 2):
            dim = 2 * m
            want = {
                ((-g) % dim, g, euler_phi(4 * m), -2)
                for g in range(dim) if (2 * g) % dim != 0
            }
            if set(rep.table_discrepancies) != want:
                surfaced = False
        if rep.rank_matches != rep.first_columns_independent:
            surfaced = False
    elapsed = time.perf_counter() - t0
    ok = surfaced and elapsed < 60
    text = _line(5, ok, "; ".join(summaries) + f"; beta = -gamma cells surfaced; "
                 f"{elapsed:.1f}s of 60s")
    assert ok, text


def test_criterion_06_gauss_sum():
    ok = all(gauss_sum_identity_check(m) for m in (1, 2, 3, 5, 7))
    text = _line(6, ok, "AR closed form exact for m in {1,2,3,5,7}")
    assert ok, text


def test_criterion_07_roundtrip():
    rng = random.Random(SEED)
    ok = True
    for m in (1, 2, 3, 5):
        for k in (0, 1):
            for _ in range(50):
                f = random_plus_expansion(m, k, rng)
                F = split_to_vector(f, m, k)
                if combine_to_scalar(F, k) != f:
                    ok = False
                if split_to_vector(combine_to_scalar(F), m, k) != F:
                    ok = False
                if not F.support_congruence_ok():
                    ok = False
    text = _line(7, ok, "split/combine mutually inverse on 50 random expansions "
                        "per (m, k), image passes the T-check")
    assert ok, text


def test_criterion_08_theta_transforms():
    t0 = time.perf_counter()
    with mp.workprec(128):
        F = split_to_vector(theta_expansion(400), 1, 0)
        points = [mpc(0, 1), mpc(mpf(1) / 3, 1), mpc("-0.5", "2")]
        rep = verify_S_transform(F, points, 1e-8)
        fj_ok = all(
            f_j_consistency_check(theta_expansion(400), 1, 0, j, [mpc(0, 1)], 1e-8).passed
            for j in (1, 3)
        )
    elapsed = time.perf_counter() - t0
    ok = rep.passed and fj_ok and elapsed < 10
    text = _line(8, ok, f"S-identity max deviation {rep.max_deviation:.2e} < 1e-8 "
                        f"at 3 points, twisted j in {{1,3}} at i; {elapsed:.1f}s of 10s")
    assert ok, text


def test_criterion_09_incomplete_gamma():
    worst = 0.0
    for a in (Fraction(-5, 2), Fraction(-3, 2), Fraction(-1, 2),
              Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        for y in (0.1, 1.0, 10.0):
            want, _ = scipy.integrate.quad(
                lambda t, aa=float(a): t ** (aa - 1) * math.exp(-t),
                y, math.inf, limit=400, epsabs=1e-300, epsrel=1e-13,
            )
            rel = abs(float(inc_gamma(a, y)) - want) / abs(want)
            worst = max(worst, rel)
    ok = worst < 1e-12
    text = _line(9, ok, f"max relative error {worst:.2e} vs adaptive quadrature")
    assert ok, text


def test_criterion_10_harmonicity():
    with mp.workprec(160):
        tau = mpc("0.21", "1.1")
        wide = (-10**6, 10**6)
        ratios = []
        ok = True
        for f in (HarmonicExpansion(3, {3: 1}, window=wide),
                  HarmonicExpansion(3, {}, {-2: 1}, window=wide)):
            for h in (1e-2, 5e-3):
                *_, ratio, passed = fd_halving_check(
                    lambda hh: laplacian_fd(f, 1, tau, hh, accuracy=1.0), h)
                ratios.append(float(ratio))
                ok = ok and passed
        probe = abs(laplacian_fd(lambda t: t.imag ** 3, 1, tau, 1e-3))
    ok = ok and probe > 1e-2
    text = _line(10, ok, "residual ratios " + ", ".join(f"{x:.2f}" for x in ratios)
                 + f" (expect 4); non-harmonic probe {float(probe):.2f} > 1e-2")
    assert ok, text


def test_criterion_11_jacobi_layer():
    rng = random.Random(SEED)
    roundtrip_ok = True
    for m in range(1, 6):
        for k in (0, 1, 2, 3):
            for _ in range(10):
                phi = random_jacobi_form(k, m, rng)
                if reconstruct(theta_decompose(phi), m) != phi:
                    roundtrip_ok = False
    heat_ok = all(
        heat_operator_term_check(m, r) == 0
        for m in range(1, 11) for r in range(-25, 26)
    )
    with mp.workprec(128):
        pts = [(mpc("0.13", "1.1"), mpc("0.21", "0.05")),
               (mpc(0, 1), mpf("0.4")),
               (mpc("-0.5", "0.8"), mpc(0, "0.1"))]
        display = decomposition_consistency_check(random_jacobi_form(2, 2, rng), pts)
        pt = (mpc("0.13", "1.05"), mpc("0.06", "0.02"))
        cas = abs(casimir_reduced_fd(JacobiForm(2, 1, {(1, 1): 1}), 2, 1, pt, 1e-3))
        probe = abs(casimir_reduced_fd(lambda t, z: mpc(t).imag ** 3, 2, 1, pt, 1e-3))
    ok = (roundtrip_ok and heat_ok and display.passed
          and cas < 1e-4 and probe > 1e-2)
    text = _line(11, ok, f"roundtrip exact m <= 5; heat term 0 for m <= 10, "
                 f"|r| <= 25; display within bounds at 3 points; Casimir "
                 f"{float(cas):.2e} < 1e-4, probe {float(probe):.2f}")
    assert ok, text


def test_criterion_12_thm2_composite():
    rng = random.Random(SEED)
    ok = True
    for m in (1, 2, 3, 5):
        for k in (0, 2, 4):
            for _ in range(10):
                phi = random_jacobi_form(k, m, rng)
                f = thm2_map(phi)
                if not plus_space_check(f, m, k - 1):
                    ok = False
                if split_to_vector(f, m, k - 1) != theta_decompose(phi):
                    ok = False
    text = _line(12, ok, "plus-space membership and exact split image on the "
                         "even-weight corpus, m in {1,2,3,5}")
    assert ok, text
