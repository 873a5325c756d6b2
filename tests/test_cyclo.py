"""Exact cyclotomic arithmetic against sympy and mpmath oracles."""

import random
from fractions import Fraction

import pytest
import sympy
from mpmath import exp, mp, mpf, pi, sqrt

from weilforms.cyclo import (
    CyclotomicNumber,
    canonical_exponent_dict,
    cyclotomic_polynomial,
    root_of_unity,
    sqrt_nat,
)


def test_cyclotomic_polynomial_matches_sympy():
    x = sympy.symbols("x")
    for n in range(1, 80):
        got = list(cyclotomic_polynomial(n))
        want = list(reversed(sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()))
        assert got == want, n


def test_root_of_unity_order_and_power():
    for q in (1, 2, 3, 4, 5, 8, 12, 15):
        z = root_of_unity(1, q)
        acc = CyclotomicNumber.one(z.order)
        for j in range(1, q + 1):
            acc = acc * z
            assert acc == root_of_unity(j, q)
        assert acc == 1


def test_root_of_unity_reduced_fraction():
    assert root_of_unity(2, 8) == root_of_unity(1, 4)
    assert root_of_unity(-1, 4) == root_of_unity(3, 4)


def test_arithmetic_laws_random():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.choice([4, 8, 12, 24])
        def rand_elt():
            return CyclotomicNumber.from_exponent_dict(
                n,
                {rng.randrange(n): Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                 for _ in range(3)},
            )
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a - a == 0
        q = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
        assert (a / q) * q == a


def test_mixed_order_lifting():
    z8 = root_of_unity(1, 8)
    z3 = root_of_unity(1, 3)
    prod = z8 * z3
    assert prod.order == 24
    assert prod == root_of_unity(1 * 3 + 1 * 8, 24)


def test_power_zero_and_wraparound():
    z = root_of_unity(1, 12)
    assert z**0 == 1
    assert z**14 == root_of_unity(2, 12)
    with pytest.raises(ValueError):
        z**-1


def test_conjugate_is_inverse_on_roots():
    for q in (3, 4, 8, 20):
        z = root_of_unity(1, q)
        assert z.conj() * z == 1


def test_as_rational_roundtrip_and_rejection():
    x = CyclotomicNumber.from_rational(Fraction(7, 3), 12)
    assert x.is_rational() and x.as_rational() == Fraction(7, 3)
    with pytest.raises(ValueError):
        root_of_unity(1, 8).as_rational()


def test_sqrt_nat_squares_to_n():
    for n in range(1, 40):
        s = sqrt_nat(n)
        assert s * s == n, n


def test_sqrt_nat_embeds_positively():
    mp.prec = 80
    for n in (2, 3, 5, 7, 10, 12, 30):
        v = sqrt_nat(n).embed_mpc(80)
        assert abs(v - sqrt(n)) < mpf(2) ** -60
        assert v.real > 0


def test_embedding_matches_direct_exponential():
    mp.prec = 120
    rng = random.Random(12)
    for _ in range(25):
        n = rng.choice([8, 12, 40])
        d = {rng.randrange(n): rng.randrange(-9, 10) for _ in range(4)}
        x = CyclotomicNumber.from_exponent_dict(n, d)
        direct = sum(c * exp(2j * pi * e / n) for e, c in d.items())
        assert abs(x.embed_mpc(120) - direct) < mpf(2) ** -100


def test_embed_python_complex():
    z = root_of_unity(1, 8)
    v = z.embed()
    assert isinstance(v, complex)
    assert abs(v - complex(2**-0.5, 2**-0.5)) < 1e-15


def test_canonical_exponent_dict_reduces_high_powers():
    n = 12
    # zeta^e for e >= phi(12) = 4 must re-express in the power basis
    for e in range(12):
        d = canonical_exponent_dict(n, {e: 1})
        x = CyclotomicNumber.from_exponent_dict(n, {j: c for j, c in d.items()})
        assert x == root_of_unity(e, n)
        assert all(j < 4 for j in d)


def test_canonical_exponent_dict_matches_sympy_remainder():
    # zeta^e = zeta^(e + 3n), so the oracle takes the remainder of a
    # polynomial with non-negative exponents modulo Phi_n
    x = sympy.symbols("x")
    rng = random.Random(120)
    for n in range(1, 121):
        d = {rng.randrange(-3 * n, 3 * n): rng.randrange(-9, 10) for _ in range(8)}
        poly = sympy.Poly.from_dict({(e + 3 * n,): c for e, c in d.items()}, x)
        rem = poly.rem(sympy.Poly(sympy.cyclotomic_poly(n, x), x))
        want = {j: int(c) for (j,), c in rem.terms() if c}
        assert canonical_exponent_dict(n, d) == want, n


def test_vanishing_sum_of_all_roots():
    for n in (3, 4, 5, 8, 12):
        total = sum((root_of_unity(j, n) for j in range(n)),
                    CyclotomicNumber.zero(n))
        assert total == 0


def test_json_roundtrip():
    x = root_of_unity(3, 8) * Fraction(5, 2) + 1
    data = x.to_json_dict()
    assert data["N"] == 8
    assert all(isinstance(s, str) and isinstance(j, int) for s, j in data["coeffs"])
    assert CyclotomicNumber.from_json_dict(data) == x


def test_division_by_zero_rational_rejected():
    with pytest.raises(ZeroDivisionError):
        root_of_unity(1, 4) / 0
