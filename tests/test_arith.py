"""Number-theoretic helpers against independent oracles."""

import random

import pytest
import sympy

from weilforms.arith import (
    euler_phi,
    factorize,
    integer_matrix_rank,
    inverse_mod,
    is_prime,
    kronecker,
    moebius,
    squarefree_decompose,
)


def test_factorize_small_cases():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(97) == {97: 1}
    assert factorize(2**10) == {2: 10}


def test_factorize_reassembles_random():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(1, 10**6)
        prod = 1
        for p, e in factorize(n).items():
            assert sympy.isprime(p)
            prod *= p**e
        assert prod == n


def test_is_prime_matches_sympy():
    for n in range(1, 2000):
        assert is_prime(n) == sympy.isprime(n)


def test_euler_phi_matches_sympy():
    for n in range(1, 500):
        assert euler_phi(n) == sympy.totient(n)


def test_moebius_matches_sympy():
    for n in range(1, 500):
        assert moebius(n) == sympy.mobius(n)


def test_inverse_mod_random():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randrange(2, 10**4)
        a = rng.randrange(1, n)
        if sympy.gcd(a, n) != 1:
            with pytest.raises(ValueError):
                inverse_mod(a, n)
        else:
            assert a * inverse_mod(a, n) % n == 1


def test_squarefree_decompose():
    for n in range(1, 400):
        s, f = squarefree_decompose(n)
        assert s * s * f == n
        assert all(e < 2 for e in factorize(f).values())


def test_kronecker_matches_sympy():
    for a in range(-40, 41):
        for n in range(-40, 41):
            if n == 0:
                continue
            assert kronecker(a, n) == sympy.kronecker_symbol(a, n), (a, n)


def test_kronecker_multiplicative_in_top():
    rng = random.Random(3)
    for _ in range(200):
        a, b = rng.randrange(-50, 51), rng.randrange(-50, 51)
        n = rng.choice([x for x in range(1, 60) if x % 2])
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_integer_matrix_rank_matches_sympy():
    rng = random.Random(4)
    for _ in range(60):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        mat = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        assert integer_matrix_rank(mat) == sympy.Matrix(mat).rank()


def test_integer_matrix_rank_degenerate_shapes():
    assert integer_matrix_rank([]) == 0
    assert integer_matrix_rank([[0, 0], [0, 0]]) == 0
    # duplicated rows never raise the rank
    assert integer_matrix_rank([[1, 2], [2, 4], [1, 2]]) == 1
