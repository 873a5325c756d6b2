"""Group structure of the metaplectic double cover."""

import cmath
import random

import pytest

from weilforms.metaplectic import (
    MP_IDENTITY,
    MP_S,
    MP_T,
    MP_Z,
    MpElement,
    Word,
    mp_decompose,
    mp_mul,
    mp_pow,
    mp_tilde,
    parse_word,
)


def _act(g, tau):
    return (g.a * tau + g.b) / (g.c * tau + g.d)


def _phi(g, tau):
    """g's branch of sqrt(c tau + d) at tau, in floats: the oracle of the exact sign rule."""
    w = complex(g.d) if g.c == 0 else g.c * tau + g.d
    return g.eps * cmath.sqrt(w)


def _random_element(rng, length=12):
    g = MP_IDENTITY
    for _ in range(length):
        g = mp_mul(g, rng.choice([MP_S, MP_T, MP_S.inv(), MP_T.inv()]))
    if rng.random() < 0.5:
        g = mp_mul(g, MP_Z)
    return g


def test_determinant_enforced():
    with pytest.raises(ValueError):
        MpElement(1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        MpElement(1, 0, 0, 1, 3)


def test_center_has_order_four():
    z2 = mp_mul(MP_Z, MP_Z)
    z4 = mp_mul(z2, z2)
    assert MP_Z != MP_IDENTITY
    assert z2 != MP_IDENTITY
    assert z2.matrix == (1, 0, 0, 1)      # -1 on the cover, trivial matrix
    assert z4 == MP_IDENTITY


def test_defining_relations():
    assert mp_mul(MP_S, MP_S) == MP_Z
    st = mp_mul(MP_S, MP_T)
    assert mp_mul(st, mp_mul(st, st)) == MP_Z
    assert mp_pow(MP_S, 4).matrix == (1, 0, 0, 1)
    assert mp_pow(MP_S, 4) != MP_IDENTITY
    assert mp_pow(MP_S, 8) == MP_IDENTITY


def test_inverse_and_associativity_random():
    rng = random.Random(21)
    for _ in range(30):
        g = _random_element(rng)
        h = _random_element(rng, 6)
        k = _random_element(rng, 6)
        assert mp_mul(g, g.inv()) == MP_IDENTITY
        assert mp_mul(g.inv(), g) == MP_IDENTITY
        assert mp_mul(mp_mul(g, h), k) == mp_mul(g, mp_mul(h, k))


def test_phi_squares_to_automorphy_factor():
    rng = random.Random(22)
    tau = 0.3 + 1.7j
    for _ in range(30):
        g = _random_element(rng)
        v = _phi(g, tau)
        assert abs(v * v - (g.c * tau + g.d)) < 1e-9


def test_phi_cocycle_numerically():
    # the generators include c = 0, d < 0 elements of both branch signs,
    # where the sign rule's i*sqrt(|d|) convention matters
    rng = random.Random(23)
    tau = -0.4 + 0.9j
    upper = [MpElement(s, b, 0, s, e) for s in (1, -1) for b in (-2, 0, 3) for e in (1, -1)]
    gens = [MP_S, MP_T, MP_S.inv(), MP_T.inv()] + upper

    def sample():
        g = MP_IDENTITY
        for _ in range(rng.randrange(0, 7)):
            g = mp_mul(g, rng.choice(gens))
        return g

    negative_d = 0
    for _ in range(1200):
        g, h = sample(), sample()
        negative_d += any(x.c == 0 and x.d < 0 for x in (g, h, mp_mul(g, h)))
        lhs = _phi(mp_mul(g, h), tau)
        rhs = _phi(g, _act(h, tau)) * _phi(h, tau)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
    assert negative_d > 200


def test_act_is_moebius():
    g = mp_tilde((2, 1, 1, 1))
    tau = 0.5 + 2j
    assert abs(_act(g, tau) - (2 * tau + 1) / (tau + 1)) < 1e-15


def test_negative_d_principal_branch():
    # for c = 0, d < 0 the convention is the limit from above: i sqrt(|d|)
    g = MpElement(-1, 0, 0, -1, 1)
    assert abs(_phi(g, 2j) - 1j) < 1e-15


def test_parse_word_and_evaluation():
    w = parse_word("S T T S'")
    assert w.runs == (("S", 1), ("T", 2), ("S", -1))
    direct = mp_mul(mp_mul(mp_mul(MP_S, MP_T), MP_T), MP_S.inv())
    assert w.to_element() == direct


def test_parse_word_folds_center():
    w = parse_word("Z S Z Z Z Z T")
    assert w.z_power == 1
    assert w.to_element() == mp_mul(mp_mul(mp_mul(MP_S, MP_T), MP_Z), MP_IDENTITY)


def test_parse_word_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word("S Q")


def test_parse_word_merges_and_cancels_runs():
    assert parse_word("T S S' T T' T").runs == (("T", 2),)
    assert parse_word("S' S' T'").runs == (("S", -2), ("T", -1))


def test_word_rejects_malformed_runs():
    for runs in [(("S", 0),), (("Q", 1),), (("T", 1), ("T", 2)), (("S", 1), ("S", -1))]:
        with pytest.raises(ValueError):
            Word(runs)
    with pytest.raises(ValueError):
        Word((("S", 1),), 4)


def test_decompose_roundtrip_random():
    rng = random.Random(24)
    for _ in range(60):
        g = _random_element(rng, rng.randrange(1, 25))
        w = mp_decompose(g)
        assert w.to_element() == g


def test_decompose_roundtrip_large_entries():
    g = mp_tilde((1, 0, 0, 1))
    for mat in [(1, 0, 4, 1), (233, 144, 89, 55), (-5, -2, 13, 5)]:
        a, b, c, d = mat
        if a * d - b * c == 1:
            g = mp_tilde(mat)
            assert mp_decompose(g).to_element() == g


def test_mp_pow_matches_repeated_product():
    rng = random.Random(25)
    g = _random_element(rng, 5)
    acc = MP_IDENTITY
    for n in range(8):
        assert mp_pow(g, n) == acc
        acc = mp_mul(acc, g)
    assert mp_pow(g, -3) == mp_pow(g.inv(), 3)


def test_decompose_lower_unipotent_is_three_runs():
    g = mp_tilde((1, 0, 200000, 1))
    w = mp_decompose(g)
    assert len(w) <= 3
    assert w.to_element() == g


def test_decompose_huge_entries():
    n = 10**160
    g = mp_tilde((n + 1, n, 1, 1))
    w = mp_decompose(g)
    assert len(w) <= 4
    assert w.to_element() == g


def test_decompose_long_product():
    rng = random.Random(26)
    g = MP_IDENTITY
    for _ in range(600):
        g = mp_mul(g, mp_mul(MpElement(1, rng.randrange(-50, 51), 0, 1, 1), MP_S))
    assert max(abs(x) for x in g.matrix) > 10**300
    w = mp_decompose(g)
    assert len(w) <= 2 * 600 + 2
    assert w.to_element() == g
    assert mp_mul(g, g.inv()) == MP_IDENTITY
